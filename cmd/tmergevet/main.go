// Command tmergevet runs the project's static-analysis pass over the
// module: determinism (no wall clocks, global randomness, or
// map-iteration-order leaks in replayed code), lock-discipline (no
// device submission while a mutex is held), error-hygiene (no dropped
// errors from checkpoint Seal/Open, write-path Close, or Try*
// functions), api-doc (every exported identifier of the root package is
// documented), goroutine-lifecycle (no fire-and-forget goroutines:
// every go statement needs a provable shutdown tie), context-discipline
// (no context.Background outside main, no time.Sleep or select-less
// channel loops in ctx-taking functions, no deadline-less net.Dial),
// channel-hygiene (unbuffered sends need a select escape arm, close
// only by the owning sender, exactly one close site per channel),
// http-hygiene (servers/clients carry timeouts, handlers bound request
// bodies), and unused (every exported package-level identifier of an
// internal package is used by a non-test file of the module; checked
// only when the module root is among the packages, as with ./...).
//
// Usage:
//
//	tmergevet [-json] [-baseline file] [-write-baseline file] [packages]
//
// Packages default to ./... . Findings print one per line as
// "file:line: [check-name] message" (or as JSON objects with -json).
// The exit status is 1 if there are findings, 2 if loading fails, and
// 0 on a clean tree. A finding can be suppressed in place with
// "//tmerge:allow <check-name> <reason>" on or directly above the
// flagged line; the reason is mandatory, and a directive that
// suppresses nothing is itself a finding.
//
// With -baseline, the exit status ratchets against a committed
// VET_baseline.json instead of demanding zero: the run fails only if
// some check's finding count exceeds the baseline's. -write-baseline
// regenerates the file from the current tree.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tmerge/tmerge/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as line-delimited JSON")
	baseline := flag.String("baseline", "", "ratchet against this baseline file: fail only if a per-check count rises above it")
	writeBaseline := flag.String("write-baseline", "", "write the current per-check finding counts to this file and exit")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmergevet:", err)
		os.Exit(2)
	}

	findings := analysis.Run(pkgs)

	if *writeBaseline != "" {
		if err := writeBaselineFile(*writeBaseline, findings); err != nil {
			fmt.Fprintln(os.Stderr, "tmergevet:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "tmergevet: wrote baseline (%d findings) to %s\n", len(findings), *writeBaseline)
		return
	}

	if *jsonOut {
		err = analysis.WriteJSON(os.Stdout, findings)
	} else {
		err = analysis.WriteText(os.Stdout, findings)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmergevet:", err)
		os.Exit(2)
	}

	if *baseline != "" {
		regressions, err := compareBaselineFile(*baseline, findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmergevet:", err)
			os.Exit(2)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "tmergevet: ratchet:", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tmergevet: %d finding(s), within baseline %s\n", len(findings), *baseline)
		return
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tmergevet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// writeBaselineFile summarises findings and writes them as a baseline.
func writeBaselineFile(path string, findings []analysis.Finding) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return analysis.WriteBaseline(f, analysis.BaselineOf(findings))
}

// compareBaselineFile loads a baseline and ratchets the findings against
// it, returning one line per regressed check.
func compareBaselineFile(path string, findings []analysis.Finding) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base, err := analysis.ReadBaseline(f)
	if err != nil {
		return nil, err
	}
	return analysis.CompareBaseline(base, analysis.BaselineOf(findings)), nil
}
