package stream_test

import (
	"context"
	"fmt"

	"causalfl/internal/metrics"
	"causalfl/internal/stream"
)

// ExampleDetector feeds a two-service stream into the incremental detector:
// svc-b's latency metric drifts away from baseline mid-stream, and the
// per-hop anomalous set flips from empty to {svc-b} without ever recomputing
// the baseline side.
func ExampleDetector() {
	baseline := metrics.NewSnapshot([]string{"latency"}, []string{"svc-a", "svc-b"})
	baseline.Data["latency"]["svc-a"] = []float64{10, 11, 10, 12, 11, 10, 11, 12}
	baseline.Data["latency"]["svc-b"] = []float64{20, 21, 20, 22, 21, 20, 21, 22}

	det, err := stream.NewDetector(baseline,
		stream.WithWindow(6),
		stream.WithAlpha(0.05),
	)
	if err != nil {
		fmt.Println(err)
		return
	}

	healthy := map[string]map[string]float64{"latency": {"svc-a": 11, "svc-b": 21}}
	degraded := map[string]map[string]float64{"latency": {"svc-a": 11, "svc-b": 90}}
	ctx := context.Background()
	for hop := 0; hop < 12; hop++ {
		obs := healthy
		if hop >= 6 {
			obs = degraded
		}
		if err := det.ObserveHop(obs); err != nil {
			fmt.Println(err)
			return
		}
		d, err := det.Detect(ctx, "latency")
		if err != nil {
			fmt.Println(err)
			return
		}
		if hop == 5 || hop == 11 {
			fmt.Printf("hop %d: anomalous=%v tested=%d\n", hop, d.Anomalous, d.Tested)
		}
	}
	// Output:
	// hop 5: anomalous=[] tested=2
	// hop 11: anomalous=[svc-b] tested=2
}
