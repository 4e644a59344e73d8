package tensor

import "testing"

func TestNewPoolClampsWorkers(t *testing.T) {
	if NewPool(0).Workers() != 1 || NewPool(-5).Workers() != 1 {
		t.Fatal("worker count must clamp to 1")
	}
	if NewPool(7).Workers() != 7 {
		t.Fatal("worker count not preserved")
	}
}

func TestNilPoolActsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatal("nil pool must report 1 worker")
	}
}
