package topo

import (
	"testing"
	"time"
)

func TestRuleOfThumbQueueLen(t *testing.T) {
	// B = RTT·C: 300 ms × 10 Mbps = 375 kB = 360 packets of 1040 B.
	got := ruleOfThumbQueueLen(300*time.Millisecond, 10e6, 1040)
	if got != 360 {
		t.Errorf("B = %d, want 360", got)
	}
	if ruleOfThumbQueueLen(time.Millisecond, 1e3, 1500) != 1 {
		t.Error("tiny BDP should clamp to 1")
	}
	if ruleOfThumbQueueLen(time.Second, 0, 1000) != 1 {
		t.Error("zero bandwidth should clamp to 1")
	}
	if ruleOfThumbQueueLen(time.Second, 1e6, 0) != 1 {
		t.Error("zero packet size should clamp to 1")
	}
}
