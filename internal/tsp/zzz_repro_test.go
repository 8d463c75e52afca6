package tsp

import "testing"

// Repro: SetState into a freshly constructed chip must not leave a
// restored register with the nzTop summary of the zero register it
// replaced (nzTop=0, all-zero): a restored nonzero activation register
// consumed by MatMul before any write would see rows=0.
func TestReproSetStateStaleNzTop(t *testing.T) {
	src := `
load_weights s1 0
load_weights s2 1
load_weights s3 2
matmul s4 s10 3
`
	direct := New(0, mustProg(t, src), nil)
	direct.SetStream(1, VectorOf([]float32{1, 0, 2}))
	direct.SetStream(2, VectorOf([]float32{0, 1, 0}))
	direct.SetStream(3, VectorOf([]float32{5, 5, 5}))
	direct.SetStream(4, VectorOf([]float32{2, 3, 4}))
	snap := direct.State()
	if _, f := direct.Run(); f != nil {
		t.Fatal(f)
	}
	want := direct.StreamFloats(10)

	restored := New(0, mustProg(t, src), nil)
	restored.SetState(snap)
	if _, f := restored.Run(); f != nil {
		t.Fatal(f)
	}
	got := restored.StreamFloats(10)
	if got != want {
		t.Fatalf("restored run diverged: got %v want %v", got[:4], want[:4])
	}
}
