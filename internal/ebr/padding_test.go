package ebr

import (
	"testing"
	"unsafe"
)

// TestCPUStatePadding pins cpuState to 128 bytes (a cache line pair,
// covering adjacent-line prefetch) so neighbouring CPUs' pinned words,
// written by every ReadLock and ReadUnlock, never false-share. The
// struct's pad field must shrink or grow whenever fields change.
func TestCPUStatePadding(t *testing.T) {
	if s := unsafe.Sizeof(cpuState{}); s != 128 {
		t.Fatalf("cpuState is %d bytes, want 128 — resize its pad field", s)
	}
}
