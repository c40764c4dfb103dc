package span

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	in := []Span{
		{Name: "shard.step", Start: 10, End: 30, Frame: -1, Step: 4},
		{Name: "multi.move", Start: 12, End: 20, Parent: "shard.step", Frame: -1, Step: 4},
		{Name: "protocol.submit", Start: 5, End: 40, Frame: 7, Step: 4},
	}
	path := filepath.Join(t.TempDir(), "s.spans")
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("a truncated span file was accepted")
	}
}

func TestUnion(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := Union(ivs, 0, 100); got != 25 {
		t.Fatalf("union = %d, want 25", got)
	}
	if got := Union(ivs, 8, 22); got != 9 {
		t.Fatalf("clipped union = %d, want 9", got)
	}
	if got := Union(nil, 0, 10); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Fatalf("interpolated median = %v", got)
	}
}
