package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// One build per key however many callers race for it, errors memoized
// like values, and a key's build in progress holds up no other key.
func TestMapBuildsOncePerKey(t *testing.T) {
	var m Map[string, int]
	var builds atomic.Int32
	slow, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("slow", func() (int, error) {
				builds.Add(1)
				close(slow)
				<-release
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("slow key: got (%d, %v)", v, err)
			}
		}()
	}
	<-slow // "slow" is mid-build, its callers parked
	if v, _ := m.Do("fast", func() (int, error) { return 1, nil }); v != 1 {
		t.Fatalf("fast key: got %d", v)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds of one key, want 1", n)
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := m.Do("bad", func() (int, error) { builds.Add(1); return 0, boom }); err != boom {
			t.Fatalf("bad key: got %v", err)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("a failed build ran again (%d builds in all, want 2)", n)
	}
}
