package main

import (
	"fmt"
	"io"

	"ciflow/internal/analysis"
)

// usage prints the experiments, the other verbs and the flag defaults
// — the `ciflow help` output — from the registry and the table run()
// dispatches on and the flag set it parses; TestHelpMatchesREADME
// holds README.md to it.
func usage(w io.Writer, fl *cliFlags) {
	fmt.Fprintln(w, "Usage: ciflow <experiment> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Experiments:")
	for _, e := range analysis.Experiments {
		fmt.Fprintf(w, "  %-14s %s\n", e.Name, e.Desc)
	}
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-14s %s\n", v.name, v.desc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Flags:")
	fl.fs.SetOutput(w)
	fl.fs.PrintDefaults()
}
