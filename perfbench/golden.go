package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// golden.json pins, per workload, the digests the default seed's
// outputs must reproduce: each simulator cell's Result, the litmus
// verdict matrix, and the farm job digests.
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden compares the run's digests with golden.json on the
// default seed, or rewrites the workload's entry with --update-golden.
func checkGolden(e *env) error {
	if e.opt.seed != defaultSeed {
		return nil
	}
	all := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if e.opt.updateGolden {
		all[e.opt.workload] = e.digests
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join("perfbench", "golden.json"), append(b, '\n'), 0o644)
	}
	want := all[e.opt.workload]
	names := make([]string, 0, len(want)+len(e.digests))
	for k := range want {
		names = append(names, k)
	}
	for k := range e.digests {
		if _, ok := want[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		e.expect(want[k] == e.digests[k], "%s digest %q, golden %q", k, e.digests[k], want[k])
	}
	return nil
}
