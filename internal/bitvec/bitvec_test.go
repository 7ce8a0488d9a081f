package bitvec

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	for _, i := range []uint32{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if v.Count() != 8 {
		t.Errorf("Count = %d, want 8", v.Count())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if v.Count() != 7 {
		t.Errorf("Count = %d, want 7", v.Count())
	}
}

func TestReset(t *testing.T) {
	v := New(100)
	for i := uint32(0); i < 100; i += 3 {
		v.Set(i)
	}
	v.Reset()
	if v.Count() != 0 {
		t.Errorf("Count after Reset = %d", v.Count())
	}
}

func TestSetAtomicClaimsOnce(t *testing.T) {
	v := New(1024)
	const goroutines = 8
	var wg sync.WaitGroup
	claims := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint32(0); i < 1024; i++ {
				if v.SetAtomic(i) {
					claims[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range claims {
		total += c
	}
	if total != 1024 {
		t.Errorf("total claims = %d, want exactly 1024", total)
	}
	if v.Count() != 1024 {
		t.Errorf("Count = %d, want 1024", v.Count())
	}
}

func TestForEachAscending(t *testing.T) {
	v := New(300)
	want := []uint32{0, 5, 63, 64, 128, 256, 299}
	for _, i := range want {
		v.Set(i)
	}
	var got []uint32
	v.ForEach(func(i uint32) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestQuickAgainstMapSet(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := uint32(nRaw%4096) + 1
		v := New(n)
		ref := map[uint32]bool{}
		r := rand.New(rand.NewSource(seed))
		for op := 0; op < 500; op++ {
			i := uint32(r.Intn(int(n)))
			switch r.Intn(3) {
			case 0:
				v.Set(i)
				ref[i] = true
			case 1:
				v.Clear(i)
				delete(ref, i)
			case 2:
				if v.Get(i) != ref[i] {
					return false
				}
			}
		}
		return v.Count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	if got := New(128).MemoryBytes(); got != 16 {
		t.Errorf("MemoryBytes(128 bits) = %d, want 16", got)
	}
	if got := New(129).MemoryBytes(); got != 24 {
		t.Errorf("MemoryBytes(129 bits) = %d, want 24", got)
	}
}
