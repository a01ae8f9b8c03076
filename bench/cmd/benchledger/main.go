// Command benchledger runs the repository's benchmark; see package bench
// and bench/README.md.
//
//	benchledger [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-short] [-json file] [-spans file]
package main

import (
	"os"

	"busytime/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
