package interval

import "testing"

func TestClip(t *testing.T) {
	s := Set{New(0, 4), New(3, 8), New(10, 12)}
	got := s.Clip(New(2, 10))
	want := Set{New(2, 4), New(3, 8), New(10, 10)}
	if len(got) != len(want) {
		t.Fatalf("Clip = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("piece %d = %v, want %v", i, got[i], want[i])
		}
	}
}
