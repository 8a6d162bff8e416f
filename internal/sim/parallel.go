package sim

import (
	"context"
	"sort"

	"github.com/calcm/heterosim/internal/device"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/par"
)

// SweepAllFFT runs the FFT sweep for every FFT-capable device. Results are
// keyed by device and identical to sequential SweepFFT calls. With execute
// set, the distinct capped sizes are verified once for all devices
// together (4..20 verifies 13 transforms, not 85), fanned out by size over
// the shared worker pool with the largest first; every device's records
// are then built from its model alone.
func (s *Simulator) SweepAllFFT(lo2, hi2 int, execute bool) (map[paper.DeviceID][]Record, error) {
	devices := s.fftDevices()
	jobs, err := fftSweepJobs(devices, lo2, hi2)
	if err != nil {
		return nil, err
	}
	recs, err := s.Run(jobs, execute)
	if err != nil {
		return nil, err
	}
	per := hi2 - lo2 + 1
	out := make(map[paper.DeviceID][]Record, len(devices))
	for i, id := range devices {
		// Capped, so an append to one device's records cannot overwrite
		// the next device's.
		out[id] = recs[i*per : (i+1)*per : (i+1)*per]
	}
	return out, nil
}

// fftDevices lists the devices with an FFT model, sorted by ID.
func (s *Simulator) fftDevices() []paper.DeviceID {
	var devices []paper.DeviceID
	for _, d := range device.Catalog() {
		if s.HasModel(d.ID, device.FFTFamily) {
			devices = append(devices, d.ID)
		}
	}
	sort.Slice(devices, func(i, j int) bool { return devices[i] < devices[j] })
	return devices
}

// verify checks every input over the shared worker pool (par package,
// GOMAXPROCS workers) in the order given; the first failure cancels the
// rest.
func verify(inputs []Input) error {
	return par.ForEach(context.Background(), len(inputs), 0,
		func(_ context.Context, i int) error { return inputs[i].check() })
}
