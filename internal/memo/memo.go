// Package memo holds the one build-once-per-key map of this module:
// hks.SwitcherPool (a switcher per level), ckks.KeyChain (an evaluation
// key per identity) and serve.SeedKeySource (a key chain per tenant)
// each memoize an expensive, deterministic construction that sits on a
// concurrent request path.
package memo

import "sync"

// Map builds the value of each key once, on first request, and hands
// every caller that value (or the build's error, memoized too: the
// builds here are functions of the key alone). The build runs outside
// the map lock, so a cold key's construction never stalls a lookup of
// another key; concurrent callers of one cold key wait for its single
// build. The zero Map is ready to use.
type Map[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]*entry[V]
}

type entry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Do returns k's value, calling build if no caller has yet.
func (m *Map[K, V]) Do(k K, build func() (V, error)) (V, error) {
	m.mu.RLock()
	e := m.m[k]
	m.mu.RUnlock()
	if e == nil {
		m.mu.Lock()
		if m.m == nil {
			m.m = map[K]*entry[V]{}
		}
		if e = m.m[k]; e == nil {
			e = &entry[V]{}
			m.m[k] = e
		}
		m.mu.Unlock()
	}
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}
