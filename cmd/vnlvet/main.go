// Command vnlvet runs the repro lint suite: eleven analyzers that mechanically
// enforce the paper's latch, version, and decision-table invariants plus the
// serving stack's wire/concurrency contract (internal/lint). It is a
// multichecker in the spirit of go vet:
//
//	vnlvet [-checks latchsafety,walerr] [-artifact diags.txt] [-list] [packages...]
//
// Package patterns default to ./... and are resolved by a single `go list`
// invocation whose type-checked result is shared across all analyzers, so
// adding analyzers does not re-load the tree. The tool must run from inside
// the module. Exit status is 0 when the tree is clean, 1 when any analyzer
// reports a diagnostic, and 2 on usage or load errors.
//
// With -artifact, every diagnostic is also written to the named file (CI
// uploads it on failure so findings survive the job log).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("vnlvet", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	artifact := fs.String("artifact", "", "also write diagnostics to this file (created only when there are findings)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vnlvet [-checks name,...] [-artifact file] [-list] [packages...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-20s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *checks != "" {
		var names []string
		for _, n := range strings.Split(*checks, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		var err error
		analyzers, err = lint.ByName(names)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnlvet: %v\n", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vnlvet: %v\n", err)
		return 2
	}

	var findings []string
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vnlvet: %s: %v\n", pkg.PkgPath, err)
			return 2
		}
		for _, d := range diags {
			line := fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
			fmt.Println(line)
			findings = append(findings, line)
		}
	}
	if len(findings) > 0 {
		if *artifact != "" {
			body := strings.Join(findings, "\n") + "\n"
			if err := os.WriteFile(*artifact, []byte(body), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "vnlvet: writing artifact: %v\n", err)
				return 2
			}
		}
		fmt.Fprintf(os.Stderr, "vnlvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
