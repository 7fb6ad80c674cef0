// Package hostcorpus pins this repository's rpcgen against the protocol
// files the host ships: every .x file under /usr/include/rpcsvc and
// /usr/include/tirpc/rpc — NFS, mount, the status monitor, the port
// mapper and the rest of Sun's own services — is run through cpp -P, as
// the system rpcgen runs it, then through rpcgen's compiled-stub
// generator, and every package it generates is built with one go build.
// Each file must either build, every procedure on plans, or be refused
// by the parser or the generator with an error that names the
// construct. The test fails on Go that does not build and when a file
// that builds stops building, and logs the plan count of each file that
// builds and the error of each that is refused.
//
// The package has no code of its own; run it with `make interop`. The
// test skips, saying why, where cpp, the go command or the corpus is
// missing, and fails instead when SPECRPC_INTEROP=require is set, as CI
// sets it.
package hostcorpus
