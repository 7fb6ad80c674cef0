# Mirrors .github/workflows/ci.yml: `make ci` runs exactly what CI runs.
# CI calls the xcompile and fuzz targets below, so their command lists
# live here only.

GO ?= go

.PHONY: all build xcompile test race handoff allocs bench benchmark-check bench-json bench-diff batch-smoke pipe-smoke chaos chaos-smoke fuzz genstubs interop fmt vet analyze ci

all: build

build:
	$(GO) build ./...

# Cross-compile checks. The recvmmsg file of the batched-I/O layer is
# gated to linux/amd64+arm64: arm64 is the mmsg target the tests do not
# run on, so it is built and the two packages around the raw syscall
# vetted for it, and darwin is the non-Linux build that proves the portable
# fallback compiles without the file. s390x
# (big-endian) and mips (32-bit, strict alignment) are the targets the
# run kernels and the codecs cannot be run on here: building and vetting
# the two layers that touch raw memory for them catches an assumption
# about the host's byte order or word size where it would bite. 386 is
# a second Go layout that does run here: hyper aligns to 4 there, so the
# fused programs differ from the host's while the emitted stubs must
# not, and a count past 2^31 reads negative as an int — the codec tests
# and rpcgen's (the emitted text is one on every GOARCH) run under it. So do the transports' and the datagram batch layer's:
# their structs hold 64-bit atomic counters that a 32-bit layout must
# keep aligned.
xcompile:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/platform/batchio ./internal/server
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=s390x $(GO) build ./...
	GOOS=linux GOARCH=s390x $(GO) vet ./internal/xdr ./internal/wire
	GOOS=linux GOARCH=mips $(GO) build ./...
	GOOS=linux GOARCH=mips $(GO) vet ./internal/xdr ./internal/wire
	GOARCH=386 $(GO) test ./internal/xdr ./internal/wire ./internal/compiledtest/... \
		./internal/rpcgen ./internal/server ./internal/client ./internal/platform/batchio

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The hand-offs of a stream connection's read side — on the client
# free ↔ a call ↔ the pump, on the server the token given away, lent and
# taken back, replies queued behind it and flushed — are a handful of
# atomics whose wrong interleavings are rare: the tests that pin them run
# twenty times under the detector. What a quick connection's burst costs
# (one goroutine, one write) is pinned on a fake clock (internal/clock)
# that stands still until a test moves it, so lendUnder and the idle
# watch cannot be overrun by a slow machine and those pins run under the
# detector too. The end of a stream is pinned both ways: a connection
# that hangs up on a bad record answers every call it read before it,
# handed off or queued behind a lent token, and a peer that stopped
# reading holds the hang-up no longer than its drain bound.
handoff:
	$(GO) test -race -count=20 -run 'LetGo|Reader|ReadSide|LoneCalls|BatchedOps|BatchedTerminal|IdleClosed|Unsolicited|TransportConformance' ./internal/client
	$(GO) test -race -count=20 -run 'LaterCall|WorkerBound|ParkedWorkers|IdleReaps|CloseWithHandlers|Watchdog|BurstBlocked|PartialRecord|HangsUpBehind|BadRecordBehind|HangUpDrain|ClosedLoopWakesNobody|QuickBurstOneWrite|BurstsAloneBecomeQuick|LendRule' ./internal/server

# The allocation pins are built `!race` (sync.Pool drops puts under the
# detector), so the race pass above never runs them: whole-call counts
# on both transports, the record and datagram batch layers, a typed
# round trip through the committed stubs, and the one slab a compiled
# decode carves its parts from.
allocs:
	$(GO) test -run 'Allocs|AllocFree|ArraysRecycle' ./internal/client ./internal/xdr \
		./internal/platform/batchio ./internal/compiledtest ./internal/compiledtest/layout

# Benchmark smoke run: one iteration of every benchmark, with allocation
# counts, matching the CI step. For real numbers drop -benchtime=1x.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# The repo benchmark (BENCHMARK.json) is a nested module the root ./...
# patterns do not reach; vet it and run its unit and smoke tests so a
# client or server API change cannot break its build unnoticed.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Machine-readable live benchmark: the generic/specialized codec
# comparison (plus the fused and compiled whole-call series) over
# netsim, UDP, and TCP, the header-path series, the
# open-loop tail-latency grid (one row per transport), and the
# syscalls/op series of plain, batched-call and one-way traffic,
# written to BENCH_live.json so the perf trajectory is tracked from PR
# to PR. Each refresh is also archived under bench/history/ keyed by
# date and commit, so the trajectory is a series of snapshots instead of
# one overwritten file.
bench-json:
	$(GO) run ./cmd/sunbench -live-spec -header-path -openloop -batch -chaos \
		-calls 2000 -live-spec-reps 3 -clients 4 -depth 16 -rate 4000 -openloop-dur 1s -openloop-reps 5 \
		-chaos-calls 400 -chaos-loss 0.15 -seed 42 \
		-json BENCH_live.json
	mkdir -p bench/history
	cp BENCH_live.json bench/history/$$(date +%Y%m%d)-$$(git rev-parse --short HEAD).json

# Noise-aware perf gate: re-measure the quick live series (netsim +
# header path, socket-free so runner network jitter stays out) three
# times — each rep a complete pass over the grid, the open-loop
# harness's interleaving generalized to the diff, so host drift hits
# every series alike — then compare the per-series medians against the
# committed baseline under per-family thresholds. Specialization series
# are compared as ratios to the same-pass generic yardstick (benchdiff
# does this on both sides), which cancels the host-speed wander between
# the baseline run and now. Only those ratios and counted series are
# judged: the raw yardsticks (live-spec-abs, header-path-abs) are
# printed and not gated, since they move with the host and failed this
# gate on untouched series. The baseline's live-spec points are
# themselves medians (bench-json passes -live-spec-reps 3), so both
# sides of the comparison carry the same estimator and one lucky pass
# can't poison a point. A regression in any gated series fails the
# build instead of scrolling past in a non-fatal report. Comparing
# against a baseline from different hardware needs wider thresholds:
# benchdiff -threshold fam=pct,... overrides.
bench-diff:
	for i in 1 2 3; do \
		$(GO) run ./cmd/sunbench -live-spec -transport sim -calls 2000 -header-path -json bench_head$$i.json >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/benchdiff -gate BENCH_live.json bench_head1.json bench_head2.json bench_head3.json; \
		status=$$?; rm -f bench_head1.json bench_head2.json bench_head3.json; exit $$status

# Chaos suite: the seeded fault-injection tests (netsim link faults,
# faultconn over real sockets) under the race detector — at-most-once
# accounting, reply-cache duplicate suppression, reconnect across
# injected resets, partition/heal convergence, cancellation leak checks.
# Seeded schedules make failures replayable: a seed is part of the test,
# not the environment.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/integration ./internal/bench
	$(GO) test -race ./internal/faultconn ./internal/netsim

# Quick chaos goodput run over all three transports: proves the retry,
# reconnect, and reply-cache counters fire outside the test harness too.
chaos-smoke:
	$(GO) run ./cmd/sunbench -chaos -transport sim,udp,tcp -clients 2 -chaos-calls 200 -seed 42

# Quick counted run of the batch-mode harness over both kernel
# transports: exercises the writev/coalesce path, the ONC batched-call
# path, and (where the kernel offers it) recvmmsg, with the udp rows'
# srvW/op at exactly 1.000 (one write per reply) and the 1x1 tcp `on`
# row's cliW/op and srvW/op at 1.000 (a lone caller) — and, as the
# 1x1 `calls` row of a second run, the closed-loop burst. That row is
# printed and not judged: it depends on the host's load (0.125 to 0.13
# on a quiet host, 0.149 to 0.208 on a busy one). That a quick burst
# stays on one goroutine at each end and writes once is asserted on a
# fake clock, by the pins in internal/server/quick_test.go.
batch-smoke:
	$(GO) run ./cmd/sunbench -batch -transport udp,tcp -clients 2 -depth 8 -calls 2000
	$(GO) run ./cmd/sunbench -batch -transport tcp -clients 1 -depth 1 -calls 8000

# The two modes of a stream link outside the tests: a lone caller (the
# 1x1 row, which reads its own replies from a server that lends it the
# read token) and pipelined ones (2 connections x 16 deep: pump, hand-off,
# group commit). Any failed call fails the run; the rates are printed,
# not judged.
pipe-smoke:
	$(GO) run ./cmd/sunbench -throughput -transport tcp -clients 2 -depth 16 -calls 40000

# Short native-fuzz smoke over the decode boundary (the record-marking
# reader, fed raw bytes and read record by record, and the RPC
# call-header decoder), the record reader's read-ahead differential
# (ReadRecord under whole delivery == under seeded short reads == a walk
# over the marks, records and error class alike; the seeds are framed
# by hand, records of several fragments and empty non-final ones), the
# record batcher under interleaved Write/Queue/Flush calls (every record
# read back intact and in order, nothing left pending), the header
# template differentials (template bytes == generic marshaler bytes),
# the call-body accept-set differential (fixed-offset parse == header
# walker), the whole-call fusion differentials (fused bytes ==
# template-copy + plan bytes), the run kernels' differential (word-width
# loop == one unit at a time at every count and alignment, nothing
# outside the window touched), the derivation differential
# (tempo-derived plan == hand-built plan, bytes and errors alike), the
# derivation's steps on random word-subset shapes (the regrouped
# residual == Lower's steps, or an explicit refusal),
# the server's dispatch path fed raw bytes (never panics, errors exactly
# when the header walk does, every reply parses and echoes the XID, and
# only a one-way handler's call goes unanswered), the stream server loop
# fed raw byte streams over pipes (never panics, every reply parses, the
# calls answered are exactly those ahead of the first record that breaks
# the stream — not a call, or past the bound — each once, on broken
# streams too, no goroutine outlives the stream), the datagram path fed
# hostile sequences from several peers (every reply echoes its request's
# XID, a non-call gets nothing, a call the table holds is never run
# again), the .x front end fed arbitrary text (Parse never panics; what
# it accepts generates Go that parses, plan-only and compiled), and the
# mini-C front end fed arbitrary text (Parse and Check never panic).
fuzz:
	$(GO) test -run=NONE -fuzz='FuzzRecRead$$' -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzRecReadDiff -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzRecBatcher -fuzztime=10s ./internal/xdr
	$(GO) test -run=NONE -fuzz=FuzzDecodeCallHeader -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz=FuzzCallTemplate -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz='FuzzReplyTemplate$$' -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz=FuzzAcceptedSuccessBody -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz='FuzzCallBody$$' -fuzztime=10s ./internal/rpcmsg
	$(GO) test -run=NONE -fuzz=FuzzCallPlanFused -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzReplyPlanFused -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzRunKernels -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDerivedPlan -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDerivedSteps -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzCompiledCodec -fuzztime=10s ./internal/compiledtest
	$(GO) test -run=NONE -fuzz=FuzzLayoutCodec -fuzztime=10s ./internal/compiledtest/layout
	$(GO) test -run=NONE -fuzz=FuzzHandleCall -fuzztime=10s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzServeConn -fuzztime=10s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzServeDatagram -fuzztime=10s ./internal/server
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/rpcgen
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/minic

# Build the rpcgen-generated stubs as part of the pipeline: generate
# from the richest testdata spec into a temp package — once plan-only,
# once with -compiled — and vet/build both, so codegen regressions fail
# the build instead of only the unit tests. The compiled pass also runs
# the three-engine differential test against the freshly emitted codecs
# (internal/compiledtest's test files, re-packaged), proving the emitted
# source is not merely compilable but byte-identical to the
# interpreters it replaces — and that the tempo-derived plans match the
# hand-built ones for every freshly generated derivable type. layout.x,
# the shapes rich.x leaves out (its linked lists' chain loops among
# them), is generated with -compiled into a package of its own and runs
# internal/compiledtest/layout's tests the same way.
genstubs:
	rm -rf ci_genstubs
	mkdir -p ci_genstubs
	$(GO) run ./cmd/rpcgen -pkg ci_genstubs -go ci_genstubs/stubs.go internal/rpcgen/testdata/rich.x
	$(GO) vet ./ci_genstubs
	$(GO) build ./ci_genstubs
	$(GO) run ./cmd/rpcgen -compiled -pkg ci_genstubs -go ci_genstubs/stubs.go internal/rpcgen/testdata/rich.x
	sed 's/^package compiledtest$$/package ci_genstubs/' internal/compiledtest/compiled_test.go > ci_genstubs/compiled_test.go
	sed 's/^package compiledtest$$/package ci_genstubs/' internal/compiledtest/derive_test.go > ci_genstubs/derive_test.go
	$(GO) vet ./ci_genstubs
	$(GO) test ./ci_genstubs
	mkdir -p ci_genstubs/layout
	$(GO) run ./cmd/rpcgen -compiled -pkg layout -go ci_genstubs/layout/stubs.go internal/rpcgen/testdata/layout.x
	cp internal/compiledtest/layout/*_test.go ci_genstubs/layout/
	$(GO) vet ./ci_genstubs/layout
	$(GO) test ./ci_genstubs/layout
	rm -rf ci_genstubs

# The libtirpc differential (internal/interop): the system rpcgen turns
# rich.x and layout.x into C, gcc links a small peer over its xdr_*
# routines with -ltirpc, and every union and optional type, and the
# types whose compiled decoders carve one slab, are exchanged
# both ways — Go bytes from each rung decode in C and encode back
# unchanged, C-encoded values decode in Go to the same value, and hostile
# discriminants, flags and truncations are refused alike. Then the host
# corpus (internal/hostcorpus): every .x file the host ships under
# /usr/include/rpcsvc and /usr/include/tirpc/rpc goes through cpp and
# this repo's rpcgen -compiled, and the nine whose Go builds today must
# still build. Both skip where gcc, cpp, rpcgen, the tirpc headers or
# the corpus are missing; CI installs them and sets
# SPECRPC_INTEROP=require, which makes a skip a failure.
interop:
	$(GO) test -count=1 -run Interop -v ./internal/interop
	$(GO) test -count=1 -v ./internal/hostcorpus

# Repo-invariant analyzers (cmd/specvet) over the whole tree via the
# go vet vettool protocol, so test files are covered too. Any finding
# fails; justified exceptions carry a //specvet:ok <analyzer> line.
analyze:
	$(GO) build -o .specvet.bin ./cmd/specvet
	$(GO) vet -vettool=$(CURDIR)/.specvet.bin ./...
	rm -f .specvet.bin

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: fmt vet analyze build xcompile race handoff allocs bench benchmark-check genstubs interop bench-diff batch-smoke pipe-smoke chaos chaos-smoke fuzz
