package main

import (
	"fmt"
	"io"
)

// usage prints the experiment table and the flag defaults — the
// `ciflow help` output — from the table run() dispatches on and the
// flag set it parses; TestHelpMatchesREADME holds README.md to it.
func usage(w io.Writer, fl *cliFlags) {
	fmt.Fprintln(w, "Usage: ciflow <experiment> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Experiments:")
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-14s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Flags:")
	fl.fs.SetOutput(w)
	fl.fs.PrintDefaults()
}
