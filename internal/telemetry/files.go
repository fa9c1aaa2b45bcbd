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
// nil (telemetry off, at zero cost) and finish does nothing. Both files
// are created here, so an unwritable path fails before any simulation
// runs rather than after it.
func OpenFiles(metricsPath, eventsPath string, window int64) (*Recorder, func() error, error) {
	if metricsPath == "" && eventsPath == "" {
		return nil, func() error { return nil }, nil
	}
	opts := Options{Window: window}
	var events, metrics *os.File
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return nil, nil, err
		}
		events, opts.Events = f, f
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			if events != nil {
				events.Close()
			}
			return nil, nil, err
		}
		metrics = f
	}
	rec := NewRecorder(opts)
	finish := func() error {
		err := rec.Flush()
		if events != nil {
			if cerr := events.Close(); err == nil {
				err = cerr
			}
		}
		if metrics == nil {
			return err
		}
		if err == nil {
			if strings.HasSuffix(metricsPath, ".csv") {
				err = rec.WriteMetricsCSV(metrics)
			} else {
				err = rec.WriteMetricsJSONL(metrics)
			}
		}
		if cerr := metrics.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return rec, finish, nil
}
