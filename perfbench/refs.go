package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"crowdram/crow"
)

// refsFile maps a seed to the digest of the multicore report at that seed
// (oracle fields excluded, so multicore-verify checks against the same
// digest). Regenerate with -write-refs LO-HI from the repository root.
const refsFile = "perfbench/refs.json"

//go:embed refs.json
var refsJSON []byte

var references = func() map[string]string {
	var r map[string]string
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		panic("perfbench: bad refs.json: " + err.Error())
	}
	return r
}()

// writeReferences recomputes the digests for seeds lo..hi ("LO-HI") and
// merges them into refsFile.
func writeReferences(span string, log io.Writer) error {
	a, b, ok := strings.Cut(span, "-")
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if !ok || err1 != nil || err2 != nil || lo > hi {
		return fmt.Errorf("-write-refs wants LO-HI, got %q", span)
	}
	for seed := lo; seed <= hi; seed++ {
		rep, err := crow.RunContext(context.Background(), multicoreOptions(seed, multicoreInsts, false))
		if err != nil {
			return err
		}
		references[fmt.Sprint(seed)] = reportDigest(rep)
		fmt.Fprintf(log, "seed %d: %s\n", seed, references[fmt.Sprint(seed)])
	}
	out, err := json.MarshalIndent(references, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsFile, append(out, '\n'), 0o644)
}
