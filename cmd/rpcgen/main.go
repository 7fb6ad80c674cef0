// Command rpcgen compiles an XDR interface definition (.x file) into Go
// stubs and, for the fixed-shape subset, mini-C marshaling routines for
// the specializer — the role of Sun's rpcgen in the paper's pipeline.
//
// Usage:
//
//	rpcgen [-pkg name] [-compiled] [-go out.go] [-minic out.mc] file.x
//
// With no output flags the Go stubs go to standard output. Every type
// gets a wire description and a compiled marshal plan — a linked list
// (a struct whose last field is optional data of itself) one that runs
// as a loop — and every procedure's stubs run on plans. A construct no
// plan describes fails with an error naming the type and the construct:
// a type no declaration defines (char, netobj, uint32_t), a bool union
// discriminant, a self-reference other than a list's last field.
// -compiled additionally emits straight-line compiled codecs for every
// wire plan and registers them, so procedures bypass the plan
// interpreter.
package main

import (
	"flag"
	"fmt"
	"os"

	"specrpc/internal/rpcgen"
)

func main() {
	pkg := flag.String("pkg", "stubs", "generated Go package name")
	goOut := flag.String("go", "", "write Go stubs to this file (default stdout)")
	mcOut := flag.String("minic", "", "write mini-C marshalers to this file")
	compiled := flag.Bool("compiled", false, "also emit compiled straight-line codecs for wire plans")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rpcgen [-pkg name] [-compiled] [-go out.go] [-minic out.mc] file.x")
		fmt.Fprintln(os.Stderr, "every type gets a plan, a linked list one that loops; a type no plan describes is an error")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *pkg, *goOut, *mcOut, *compiled); err != nil {
		fmt.Fprintln(os.Stderr, "rpcgen:", err)
		os.Exit(1)
	}
}

func run(path, pkg, goOut, mcOut string, compiled bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	spec, err := rpcgen.Parse(string(src))
	if err != nil {
		return err
	}
	goSrc, err := rpcgen.GenerateGo(spec, rpcgen.GoOptions{Package: pkg, Compiled: compiled})
	if err != nil {
		return err
	}
	if goOut == "" {
		fmt.Print(goSrc)
	} else if err := os.WriteFile(goOut, []byte(goSrc), 0o644); err != nil {
		return err
	}
	if mcOut != "" {
		mcSrc, skipped, err := rpcgen.GenerateMiniC(spec)
		if err != nil {
			return err
		}
		for _, s := range skipped {
			fmt.Fprintln(os.Stderr, "rpcgen: not specializable:", s)
		}
		if err := os.WriteFile(mcOut, []byte(mcSrc), 0o644); err != nil {
			return err
		}
	}
	return nil
}
