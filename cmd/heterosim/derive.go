package main

import (
	"fmt"
	"os"
	"sort"

	"github.com/calcm/heterosim/internal/measure"
	"github.com/calcm/heterosim/internal/report"
)

// cmdDerive calibrates U-core parameters from a user-supplied JSON
// measurement file (or exports the built-in simulated database as a
// template with -dump). Each workload needs a "Core i7-960" reference
// row; any other device name is treated as a U-core.
func cmdDerive(args []string) error {
	fs := newFlagSet("derive")
	in := fs.String("measurements", "", "path to a JSON measurement file (see -dump for the format)")
	dump := fs.Bool("dump", false, "write the built-in simulated measurement database as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dump {
		db, err := idealDatabase()
		if err != nil {
			return err
		}
		return measure.SaveMeasurements(os.Stdout, db)
	}
	if *in == "" {
		return fmt.Errorf("derive: -measurements <file> required (or -dump for a template)")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := measure.LoadMeasurements(f)
	if err != nil {
		return err
	}
	derived, err := db.DeriveTable5()
	if err != nil {
		return err
	}
	type row struct {
		dev, wl string
		mu, phi float64
	}
	var rows []row
	for dev, wls := range derived {
		for wl, p := range wls {
			rows = append(rows, row{string(dev), string(wl), p.Mu, p.Phi})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].dev != rows[j].dev {
			return rows[i].dev < rows[j].dev
		}
		return rows[i].wl < rows[j].wl
	})
	t := report.NewTable(fmt.Sprintf("Derived U-core parameters from %s", *in),
		"Device", "Workload", "phi", "mu")
	for _, r := range rows {
		t.AddRowf(r.dev, r.wl, r.phi, r.mu)
	}
	return t.Render(os.Stdout)
}
