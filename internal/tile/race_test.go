package tile

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// TestDBConcurrentAddLookup hammers one DB from 32 goroutines mixing Add,
// Lookup, LookupOrSelect, and Len. It exists to fail under `go test -race`
// if any of the DB's locking (records RWMutex, memo mutex, generation
// invalidation) regresses.
func TestDBConcurrentAddLookup(t *testing.T) {
	db := NewDB()
	gpus := []gpu.Spec{gpu.MustLookup("V100"), gpu.MustLookup("H100"), gpu.MustLookup("A100-40GB")}

	// Seed a few records so lookups have matches from the start.
	for i := 1; i <= 4; i++ {
		k := kernels.NewBMM(i, 64*i, 64, 64)
		db.Add(k, gpus[0], Select(k, gpus[0]))
	}

	const goroutines = 32
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := gpus[w%len(gpus)]
			for i := 0; i < iters; i++ {
				k := kernels.NewBMM(1+(w+i)%8, 32+32*(i%4), 64, 64)
				switch i % 4 {
				case 0: // writer: mutates records and bumps the memo generation
					db.Add(k, g, Select(k, g))
				case 1:
					if tl, ok := db.Lookup(k, g); ok && len(tl.Dims) == 0 {
						t.Error("Lookup returned an empty tile with ok=true")
					}
				case 2:
					if tl := db.LookupOrSelect(k, g); len(tl.Dims) == 0 {
						t.Error("LookupOrSelect returned an empty tile")
					}
				default:
					if db.Len() < 4 {
						t.Error("Len dropped below the seeded count")
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := db.Len(), 4+goroutines*iters/4; got != want {
		t.Errorf("final record count = %d, want %d", got, want)
	}
}

// TestDBMemoInvalidation checks that LookupOrSelect answers change when a
// closer record is added after the memo has been populated.
func TestDBMemoInvalidation(t *testing.T) {
	db := NewDB()
	g := gpu.MustLookup("V100")
	far := kernels.NewBMM(64, 2048, 2048, 2048)
	db.Add(far, g, Tile{Dims: []int{256, 256}})

	query := kernels.NewBMM(1, 32, 32, 32)
	if got := db.LookupOrSelect(query, g); got.Dims[0] != 256 {
		t.Fatalf("pre-invalidation tile = %v, want the far record's 256x256", got.Dims)
	}
	// A record exactly matching the query must now win, despite the memo.
	db.Add(query, g, Tile{Dims: []int{16, 16}})
	if got := db.LookupOrSelect(query, g); got.Dims[0] != 16 {
		t.Errorf("post-invalidation tile = %v, want the exact record's 16x16", got.Dims)
	}
}

// TestDBConcurrentLookupOrSelectSingleKey drives many goroutines at one
// key to exercise the memoize-while-scanning path.
func TestDBConcurrentLookupOrSelectSingleKey(t *testing.T) {
	db := NewDB()
	g := gpu.MustLookup("H100")
	k := kernels.NewLinear(512, 1024, 1024)
	db.Add(k, g, Select(k, g))

	want := db.LookupOrSelect(k, g)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got := db.LookupOrSelect(k, g)
				if len(got.Dims) != len(want.Dims) {
					t.Error("inconsistent tile across concurrent lookups")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLookupOrSelectScansOncePerKey holds LookupOrSelect's single flight:
// 32 goroutines asking for one cold key share one scan; a scan that panics
// releases its waiters, which retry, and the key memoizes again; and a scan
// still running when Add lands is never served to a caller that arrives
// after the Add.
func TestLookupOrSelectScansOncePerKey(t *testing.T) {
	g := gpu.MustLookup("H100")
	far, query := kernels.NewBMM(64, 2048, 2048, 2048), kernels.NewBMM(2, 96, 64, 96)
	t.Cleanup(func() { scanDone = nil })

	// holdFirstScan returns a database holding only the far record whose
	// first scan, once it has read the records, closes scanning and waits
	// for release — then panics if fail is set. Every scan counts in scans.
	holdFirstScan := func(fail bool) (db *DB, scans *atomic.Int64, scanning, release chan struct{}) {
		db, scans = NewDB(), new(atomic.Int64)
		db.Add(far, g, Tile{Dims: []int{1, 256, 256}})
		scanning, release = make(chan struct{}), make(chan struct{})
		scanDone = func() {
			if scans.Add(1) == 1 {
				close(scanning)
				<-release
				if fail {
					panic("scan failed")
				}
			}
		}
		return db, scans, scanning, release
	}

	t.Run("one scan", func(t *testing.T) {
		db, scans, scanning, release := holdFirstScan(false)
		tiles := make([]Tile, 32)
		var wg sync.WaitGroup
		for w := range tiles {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tiles[w] = db.LookupOrSelect(query, g)
			}(w)
		}
		<-scanning
		close(release)
		wg.Wait()
		if n := scans.Load(); n != 1 {
			t.Fatalf("%d scans for one key from 32 goroutines, want 1", n)
		}
		for w := range tiles {
			if &tiles[w].Dims[0] != &tiles[0].Dims[0] {
				t.Fatalf("goroutine %d got the tile of a scan of its own", w)
			}
		}
	})

	t.Run("panic", func(t *testing.T) {
		db, _, scanning, release := holdFirstScan(true)
		leader := make(chan any)
		go func() {
			defer func() { leader <- recover() }()
			db.LookupOrSelect(query, g)
		}()
		<-scanning
		waiters := make(chan Tile)
		for i := 0; i < 8; i++ {
			go func() { waiters <- db.LookupOrSelect(query, g) }()
		}
		close(release)
		if r := <-leader; r == nil {
			t.Fatal("the caller whose scan panicked returned normally")
		}
		for i := 0; i < 8; i++ {
			select {
			case tl := <-waiters:
				if tl.Dims[1] != 256 {
					t.Errorf("a waiter got %v, want the far record's tile", tl.Dims)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a waiter is wedged on the panicked scan")
			}
		}
		db.LookupOrSelect(query, g)
		if _, ok := db.Memoized(&query, g); !ok {
			t.Error("the key never memoizes again after a panicked scan")
		}
	})

	t.Run("Add mid-scan", func(t *testing.T) {
		db, _, scanning, release := holdFirstScan(false)
		held := make(chan Tile)
		go func() { held <- db.LookupOrSelect(query, g) }()
		<-scanning // that scan has read the far record only
		db.Add(query, g, Tile{Dims: []int{1, 16, 16}})
		if tl := db.LookupOrSelect(query, g); tl.Dims[1] != 16 {
			t.Errorf("a caller after the Add got %v, the scan that started before it", tl.Dims)
		}
		close(release)
		if tl := <-held; tl.Dims[1] != 256 {
			t.Errorf("the held scan returned %v, want the pre-Add nearest match", tl.Dims)
		}
		if tl := db.LookupOrSelect(query, g); tl.Dims[1] != 16 {
			t.Errorf("after the held scan finished the memo serves %v", tl.Dims)
		}
	})
}
