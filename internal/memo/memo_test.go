package memo

import (
	"context"
	"testing"
)

// TestRetention runs one key sequence under each retention policy and pins
// what each keeps: None nothing, Unlimited everything, LRU(2) the two most
// recently used keys; a zero Map given a retention with SetRetention
// behaves as New's.
func TestRetention(t *testing.T) {
	if LRU(0) != Unlimited || LRU(-3) != Unlimited {
		t.Fatal("LRU(n <= 0) is not Unlimited")
	}
	for _, c := range []struct {
		name       string
		r          Retention
		runs, hits int64
		evictions  int64
		held       int
	}{
		{"none", None, 6, 0, 0, 0},
		{"unlimited", Unlimited, 3, 3, 0, 3},
		// a b a c(evicts b) b(evicts a) c
		{"lru2", LRU(2), 4, 2, 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			zero := new(Map[string, int])
			zero.SetRetention(c.r)
			for _, m := range []*Map[string, int]{New[string, int](c.r), zero} {
				for _, k := range []string{"a", "b", "a", "c", "b", "c"} {
					v, err := m.Do(context.Background(), k, func() (int, error) { return len(k), nil })
					if err != nil || v != 1 {
						t.Fatalf("Do(%s) = (%d, %v), want (1, nil)", k, v, err)
					}
				}
				st := m.Stats()
				if st.Runs != c.runs || st.Hits != c.hits || st.Evictions != c.evictions || st.Waiting != 0 {
					t.Errorf("stats = %+v, want %d runs / %d hits / %d evictions / 0 waiting", st, c.runs, c.hits, c.evictions)
				}
				if n := m.Len(); n != c.held {
					t.Errorf("holds %d entries, want %d", n, c.held)
				}
			}
		})
	}
}
