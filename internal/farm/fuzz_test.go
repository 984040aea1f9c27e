package farm

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzJobSpec decodes arbitrary bytes exactly as the submit handler
// does and checks the contract between validation and expansion: a
// spec Validate accepts expands to at least one cell, expands the same
// way every time, and yields a cache key for every cell. Cells are
// never executed.
func FuzzJobSpec(f *testing.F) {
	// The farm smoke job.
	f.Add([]byte(`{
  "litmus": {"tests": ["SB", "MP"],
             "configs": ["baseline", "nus-only"],
             "runs": 100, "seed": 7},
  "bench": {"machines": ["baseline"], "workloads": ["gzip"],
            "cores": 1, "warm": 5000, "window": 20000, "seed": 1}
}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"litmus": {"tests": ["NOPE"], "runs": 1}}`))
	f.Add([]byte(`{"litmus": {"configs": ["no-such-config"], "runs": 1}}`))
	f.Add([]byte(`{"matrix": {"machines": ["no-such-machine"], "uni_instr": 1000}}`))
	f.Add([]byte(`{"matrix": {"workloads": ["no-such-workload"], "mp_instr": 1000}}`))
	f.Add([]byte(`{"bench": {"machines": ["baseline"], "workloads": ["no-such-workload"], "cores": 1, "window": 1}}`))
	f.Add([]byte(`{"matrix": {"workloads": ["ocean", "spin"], "uni_instr": 1, "mp_instr": 1, "mp_cores": 4, "samples": 3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		r := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(data))
		if !decodeBody(httptest.NewRecorder(), r, &spec, "") {
			return
		}
		if spec.Validate() != nil {
			return
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatalf("Validate accepted the spec but Cells failed: %v", err)
		}
		if len(cells) == 0 {
			t.Fatal("Validate accepted the spec but it expands to no cells")
		}
		again, err := spec.Cells()
		if err != nil || !reflect.DeepEqual(cells, again) {
			t.Fatalf("second expansion differs (err %v)", err)
		}
		for i, c := range cells {
			if _, err := c.Key(); err != nil {
				t.Fatalf("cell %d (%+v) has no key: %v", i, c, err)
			}
		}
	})
}
