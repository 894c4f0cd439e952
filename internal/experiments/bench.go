package experiments

import (
	"encoding/json"
	"os"
)

// BenchJSON marshals a bench record (a fleet sweep, or a *MigrateBench,
// *TierBench or *ScaleBench) into its machine-readable BENCH_*.json form.
// Deterministic: same record, same bytes.
func BenchJSON(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WriteBench writes a bench record to path: offloadbench -out, the ad-hoc
// writer for non-default configurations (the committed records are goldens
// of TestCommittedRecords). A record that carries a floor — it has a
// CheckFloor method — is refused while the floor fails, so a written bench
// file always demonstrates the claim it gates.
func WriteBench(path string, v any) error {
	if err := checkFloor(v); err != nil {
		return err
	}
	out, err := BenchJSON(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// checkFloor runs a record's floor if it carries one.
func checkFloor(v any) error {
	if f, ok := v.(interface{ CheckFloor() error }); ok {
		return f.CheckFloor()
	}
	return nil
}
