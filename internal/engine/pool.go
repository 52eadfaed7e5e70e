package engine

import "sync"

// orderedChunks is the engine's one scheduler: a pool of workers maps
// work over the chunk indexes [0, n) while the caller's reduce consumes
// the results in strictly ascending index order.
//
// Dispatch is windowed: at most workers+2 chunks may be in flight
// beyond the reduce frontier, so even when one early chunk is slow the
// out-of-order results parked in the reorder buffer stay bounded by the
// pool size — memory never grows with the total chunk count.
//
// The first barrier chunks form a prefix that is dispatched and reduced
// in full before chunk barrier is dispatched (0: no barrier). The wait
// sits in the dispatcher, never in a worker, so no worker holds a Gate
// slot while the prefix drains.
//
// The first error from work or reduce cancels the pool and is returned.
func orderedChunks[T any](workers, n, barrier int, work func(idx int) (T, error), reduce func(idx int, v T) error) error {
	if workers > n {
		workers = n
	}
	type result struct {
		idx int
		v   T
		err error
	}
	jobs := make(chan int)
	results := make(chan result, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range jobs {
				v, err := work(idx)
				select {
				case results <- result{idx, v, err}:
				case <-done:
					return
				}
			}
		}()
	}

	// The dispatch window: one token per chunk allowed past the reduce
	// frontier. The feeder takes a token per dispatched chunk; the
	// reducer returns it once that chunk is folded in. prefixDone closes
	// once the reducer has folded in the barrier prefix.
	window := workers + 2
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	prefixDone := make(chan struct{})
	go func() {
		defer close(jobs)
		for idx := 0; idx < n; idx++ {
			if idx == barrier && barrier > 0 {
				select {
				case <-prefixDone:
				case <-done:
					return
				}
			}
			select {
			case <-tokens:
			case <-done:
				return
			}
			select {
			case jobs <- idx:
			case <-done:
				return
			}
		}
	}()

	defer func() {
		close(done)
		wg.Wait()
	}()
	pending := make(map[int]T, window)
	for next := 0; next < n; {
		r := <-results
		if r.err != nil {
			return r.err
		}
		pending[r.idx] = r.v
		for {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if err := reduce(next, v); err != nil {
				return err
			}
			next++
			if next == barrier {
				close(prefixDone)
			}
			// Never blocks: the chunk just reduced held a token.
			tokens <- struct{}{}
		}
	}
	return nil
}
