package sca

import "testing"

func TestCPACloneEqual(t *testing.T) {
	c := MustNewCPA(2, 2)
	if err := c.Add([]float64{1, 2}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	d := c.Clone()
	if !d.Equal(c) {
		t.Fatal("clone differs")
	}
	if err := c.Add([]float64{0, 1}, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if d.Equal(c) {
		t.Fatal("clone shares state with its source")
	}
	if !d.Equal(d.Clone()) {
		t.Fatal("clone of clone differs")
	}
}
