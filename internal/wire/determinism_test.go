package wire

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// determinismProfiles is the workload sweep for the Workers=1 ≡
// Workers=N contract. Short mode keeps the two smaller scales.
func determinismProfiles(t *testing.T) []workload.Profile {
	profiles := []workload.Profile{workload.Lcc, workload.Wep, workload.Word}
	if !testing.Short() {
		profiles = append(profiles, workload.Gcc)
	}
	return profiles
}

// TestParallelOutputIdentical pins the determinism contract: for every
// workload and every pipeline configuration, the compressed bytes at
// Workers=1 are identical to the bytes at Workers=8, for both the
// plain and the indexed container.
func TestParallelOutputIdentical(t *testing.T) {
	optVariants := []Options{
		{},
		{NoMTF: true},
		{NoHuffman: true},
		{Final: FinalArith},
		{Final: FinalNone},
	}
	for _, p := range determinismProfiles(t) {
		mod := compileMod(t, p.Name, workload.Generate(p))
		for vi, base := range optVariants {
			serial, parallelOpt := base, base
			serial.Workers = 1
			parallelOpt.Workers = 8

			wantPlain, err := CompressOpts(mod, serial)
			if err != nil {
				t.Fatalf("%s variant %d serial: %v", p.Name, vi, err)
			}
			gotPlain, err := CompressOpts(mod, parallelOpt)
			if err != nil {
				t.Fatalf("%s variant %d parallel: %v", p.Name, vi, err)
			}
			if !bytes.Equal(wantPlain, gotPlain) {
				t.Errorf("%s variant %d: plain container differs between Workers=1 and Workers=8", p.Name, vi)
			}

			wantIdx, err := CompressIndexedTraced(mod, serial, nil)
			if err != nil {
				t.Fatalf("%s variant %d serial indexed: %v", p.Name, vi, err)
			}
			gotIdx, err := CompressIndexedTraced(mod, parallelOpt, nil)
			if err != nil {
				t.Fatalf("%s variant %d parallel indexed: %v", p.Name, vi, err)
			}
			if !bytes.Equal(wantIdx, gotIdx) {
				t.Errorf("%s variant %d: indexed container differs between Workers=1 and Workers=8", p.Name, vi)
			}

			// The parallel encode's bytes decode to the module.
			back, err := Decompress(gotPlain)
			if err != nil {
				t.Fatalf("%s variant %d decompress: %v", p.Name, vi, err)
			}
			if !modulesEqual(back, mod) {
				t.Errorf("%s variant %d: roundtrip lost the module", p.Name, vi)
			}
		}
	}
}

// TestMeasureMatchesCompressParallel re-pins the Stats invariant on
// the parallel path: MeasureTraced must return the same bytes
// CompressOpts produces, at any worker count.
func TestMeasureMatchesCompressParallel(t *testing.T) {
	mod := compileMod(t, "wep", workload.Generate(workload.Wep))
	opt := Options{Workers: 8}
	_, measured, err := MeasureTraced(mod, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := CompressOpts(mod, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(measured, direct) {
		t.Error("MeasureTraced bytes differ from CompressOpts under Workers=8")
	}
}

// TestSharedPoolConcurrentCompress hammers one shared pool from many
// concurrent Compress calls — the batch-mode shape — under -race via
// make check. Every call must still produce the serial bytes.
func TestSharedPoolConcurrentCompress(t *testing.T) {
	mod := compileMod(t, "wep", workload.Generate(workload.Wep))
	want, err := CompressOpts(mod, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewTraced(4, telemetry.New())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := CompressOpts(mod, Options{Pool: pool})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(want, got) {
					t.Error("shared-pool compress bytes differ from serial")
					return
				}
			}
		}()
	}
	wg.Wait()
}
