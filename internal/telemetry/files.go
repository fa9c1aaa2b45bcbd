package telemetry

import (
	"os"
	"strings"
)

// OpenFiles is the command-line telemetry set-up behind the -metrics and
// -events flags. It builds a recorder with the given series window
// whose events stream as JSONL to eventsPath, and returns a finish
// function that flushes and closes that stream and then writes every
// metric point to metricsPath: CSV when the name ends in .csv, JSONL
// otherwise. Either path may be empty. With both empty the recorder is
// nil (telemetry off, at zero cost) and finish does nothing.
func OpenFiles(metricsPath, eventsPath string, window int64) (*Recorder, func() error, error) {
	if metricsPath == "" && eventsPath == "" {
		return nil, func() error { return nil }, nil
	}
	opts := Options{Window: window}
	var events *os.File
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return nil, nil, err
		}
		events, opts.Events = f, f
	}
	rec := NewRecorder(opts)
	finish := func() error {
		if err := rec.Flush(); err != nil {
			return err
		}
		if events != nil {
			if err := events.Close(); err != nil {
				return err
			}
		}
		if metricsPath == "" {
			return nil
		}
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if strings.HasSuffix(metricsPath, ".csv") {
			err = rec.WriteMetricsCSV(f)
		} else {
			err = rec.WriteMetricsJSONL(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return rec, finish, nil
}
