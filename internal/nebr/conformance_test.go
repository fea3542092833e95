// Package nebr_test runs the shared conformance suite against the
// neutralizing epoch engine: internal/ebr with NeutralizeAfter set, the
// configuration registered as "nebr". The engine itself lives in
// internal/ebr; this directory holds only its conformance run.
package nebr_test

import (
	"testing"
	"time"

	"prudence/internal/ebr"
	gsync "prudence/internal/sync"
	"prudence/internal/sync/synctest"
	"prudence/internal/vcpu"
)

// The bound is pushed far above any suite hold window, so the armed
// policy (interrupt handlers installed, straggler timing on every pass)
// must behave exactly like plain EBR; internal/ebr's straggler tests
// then cover neutralization itself.
func TestConformance(t *testing.T) {
	synctest.Run(t, 4, func(t *testing.T) gsync.Backend {
		m := vcpu.NewMachine(4)
		t.Cleanup(m.Stop)
		return ebr.New(m, ebr.Options{
			AdvanceInterval: 500 * time.Microsecond,
			NeutralizeAfter: time.Minute,
		})
	})
}
