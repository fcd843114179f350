package core

import (
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/metrics"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/transport"
)

// TestThreadedChurnEndToEnd runs the threaded architecture with connection
// churn: calls must complete cleanly, and the shared-address-space
// property (zero IPC) must hold.
func TestThreadedChurnEndToEnd(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchThreaded,
		Workers:           4,
		ConnMgr:           connmgr.KindPQueue,
		IdleTimeout:       200 * time.Millisecond,
		IdleCheckInterval: 50 * time.Millisecond,
	})
	// ops/conn = 4 forces reconnects, so dispatch runs many times per peer.
	res := runLoad(t, srv, transport.TCP, 4, 8, 4)
	assertClean(t, res, 32)
	if res.Reconnects == 0 {
		t.Error("no reconnects despite ops/conn churn")
	}
	if got := srv.Profile().Counter(metrics.MetricIPCCount).Value(); got != 0 {
		t.Errorf("threaded server performed %d IPC requests", got)
	}
}

// TestWheelTimerEndToEnd swaps the timer wheel in under the UDP
// architecture with downstream loss, so the proxy's Timer A/B cycle — the
// schedule/cancel churn the wheel exists to make cheap — runs against the
// wheel in a full end-to-end call flow.
func TestWheelTimerEndToEnd(t *testing.T) {
	srv, err := New(Config{
		Arch:          ArchUDP,
		Workers:       4,
		Stateful:      true,
		Domain:        testDomain,
		Faults:        FaultConfig{DropTx: 0.25, Seed: 11},
		Txn:           transaction.Config{T1: 40 * time.Millisecond, TimerB: 5 * time.Second, Linger: 200 * time.Millisecond},
		TimerInterval: 10 * time.Millisecond,
		TimerImpl:     timerlist.ImplWheel,
		TimerShards:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.DB().ProvisionN(8, testDomain)

	if _, ok := srv.Timers().(*timerlist.Wheel); !ok {
		t.Fatalf("Timers() = %T, want *timerlist.Wheel", srv.Timers())
	}
	res := runLossyLoad(t, srv, 2, 8)
	if res.CallsFailed != 0 {
		t.Errorf("%d calls failed under downstream loss with the wheel", res.CallsFailed)
	}
	if got := srv.Profile().Counter(metrics.MetricRetransmits).Value(); got == 0 {
		t.Error("proxy never retransmitted despite downstream loss")
	}
	scheduled, _ := srv.Timers().Stats()
	if scheduled == 0 {
		t.Error("wheel scheduled no timers")
	}
}

// TestConfigRejectsBadKnobs pins the validation: a junk timer policy fails
// fast instead of silently running the default.
func TestConfigRejectsBadKnobs(t *testing.T) {
	if _, err := New(Config{Arch: ArchUDP, TimerImpl: "calendar"}); err == nil {
		t.Error("unknown TimerImpl accepted")
	}
}
