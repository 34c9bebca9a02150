package service

import (
	"encoding/json"
	"testing"
)

func TestMarshalDetSortedKeysAndFloats(t *testing.T) {
	tenth := 0.1 // runtime addition: 0.1+0.2 != 0.3 in float64
	got := string(marshalDet(map[string]any{
		"zeta":  1,
		"alpha": tenth + 0.2, // 0.30000000000000004 under 'g'/-1/64
		"mid": map[string]any{
			"b": int64(-3),
			"a": []any{"x", true, nil, uint64(18446744073709551615)},
		},
		"tiny": 1e-7,
		"big":  1e21,
	}))
	want := `{"alpha":0.30000000000000004,"big":1e+21,"mid":{"a":["x",true,null,18446744073709551615],"b":-3},"tiny":1e-07,"zeta":1}` + "\n"
	if got != want {
		t.Fatalf("marshalDet:\n got %s\nwant %s", got, want)
	}
}

func TestMarshalDetIsValidJSON(t *testing.T) {
	b := marshalDet(map[string]any{
		"s":  "quote\" and \\ and \x01 control",
		"f":  3.14159,
		"l":  []string{"a", "b"},
		"n":  nil,
		"i0": 0,
	})
	var v map[string]any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b)
	}
	if v["s"] != "quote\" and \\ and \x01 control" {
		t.Fatalf("string round trip failed: %q", v["s"])
	}
}

func TestMarshalDetStable(t *testing.T) {
	// Maps iterate in random order; the encoder must erase that.
	m := map[string]any{}
	for _, k := range []string{"k3", "k1", "k9", "k2", "k5", "k8", "k4", "k7", "k6"} {
		m[k] = map[string]any{"v": 1.5, "w": k}
	}
	first := marshalDet(m)
	for i := 0; i < 20; i++ {
		if got := marshalDet(m); string(got) != string(first) {
			t.Fatalf("iteration %d produced different bytes", i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(50) // first bucket (<=100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900_000) // <=1s bucket
	}
	if q := h.Quantile(0.50); q != 100 {
		t.Fatalf("p50 = %v, want 100", q)
	}
	// The p99 bucket's bound (1e6) exceeds every observation in it, so
	// the estimate is clamped to the observed max.
	if q := h.Quantile(0.99); q != 900_000 {
		t.Fatalf("p99 = %v, want 900000 (the max)", q)
	}
	if h.max != 900_000 {
		t.Fatalf("max = %v", h.max)
	}

	// All observations in one bucket whose bound lies above the max: no
	// quantile may exceed the largest observation.
	one := NewHistogram()
	for _, us := range []float64{9000, 12000, 14124} {
		one.Observe(us)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := one.Quantile(q); got > one.max || got != 14124 {
			t.Fatalf("one-bucket p%v = %v, want <= max 14124 (the max itself)", q*100, got)
		}
	}
}
