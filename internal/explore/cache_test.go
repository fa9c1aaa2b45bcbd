package explore

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func specN(n int) Spec {
	return Spec{Subnets: 1 + n%8, WidthBits: 64 << (n % 3), VCDepth: 4, TIdle: 4,
		Metric: "BFM", Load: 0.1, Warmup: 100, Measure: 400, Seed: uint64(n)}
}

func TestCachePutGetReload(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		s := specN(i)
		if err := c.Put(s.Key(), s, Sample{PowerW: float64(i), Latency: float64(100 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := c.Get(specN(3).Key()); !ok || got.PowerW != 3 {
		t.Fatalf("Get after Put: %+v, %t", got, ok)
	}
	if _, ok := c.Get("feedfacefeedfacefeedfacefeedface"); ok {
		t.Fatal("Get of unknown key succeeded")
	}
	st := c.Stats()
	if st.Puts != n || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want %d puts / 1 hit / 1 miss", st, n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload from disk: every record must come back.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(c2.idx) != n {
		t.Fatalf("reloaded %d records, want %d", len(c2.idx), n)
	}
	if c2.Stats().Loaded != n {
		t.Fatalf("Loaded = %d, want %d", c2.Stats().Loaded, n)
	}
	for i := 0; i < n; i++ {
		s := specN(i)
		if got, ok := c2.Get(s.Key()); !ok || got.PowerW != float64(i) {
			t.Fatalf("record %d lost across reload: %+v, %t", i, got, ok)
		}
	}
}

func TestCacheToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := specN(0), specN(1)
	if err := c.Put(s0.Key(), s0, Sample{PowerW: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(s1.Key(), s1, Sample{PowerW: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a mid-append kill: truncate every shard halfway through
	// its last line.
	matches, err := filepath.Glob(filepath.Join(dir, "results-*.jsonl"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no shards written (%v)", err)
	}
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(m, b[:len(b)-7], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each truncated shard loses exactly its torn last record; earlier
	// lines survive. With two records over at most two shards, at least
	// zero and at most one record per shard remains — the load itself
	// must not error, and surviving records must be intact.
	for _, key := range []string{s0.Key(), s1.Key()} {
		if got, ok := c2.Get(key); ok && got.PowerW != 1 && got.PowerW != 2 {
			t.Fatalf("surviving record corrupted: %+v", got)
		}
	}
	if int64(len(c2.idx)) != c2.Stats().Loaded {
		t.Fatalf("index holds %d keys, Loaded %d", len(c2.idx), c2.Stats().Loaded)
	}

	// The resumed campaign appends one new record to each torn shard; the
	// next load must recover every one of them rather than lose the first
	// append to the torn bytes it lands on.
	shards := []int{shardOf(s0.Key())}
	if sh := shardOf(s1.Key()); sh != shards[0] {
		shards = append(shards, sh)
	}
	var fresh []Spec
	for _, sh := range shards {
		i := 2
		for shardOf(specN(i).Key()) != sh {
			if i++; i > 10000 {
				t.Fatalf("no spec hashes to shard %d", sh)
			}
		}
		s := specN(i)
		if err := c2.Put(s.Key(), s, Sample{PowerW: float64(s.Seed)}); err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, s)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	for _, s := range fresh {
		if got, ok := c3.Get(s.Key()); !ok || got.PowerW != float64(s.Seed) {
			t.Errorf("record appended after a torn tail: got %+v, %v", got, ok)
		}
	}
}

// FuzzCacheLoad writes arbitrary bytes as a shard: OpenCache must load
// it without panicking, and a record Put after the load must come back
// from a reopen whatever torn, blank or garbage lines precede it. Seeds
// live in testdata/fuzz/FuzzCacheLoad.
func FuzzCacheLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, shard []byte) {
		dir := t.TempDir()
		s := specN(1)
		key := s.Key()
		path := (&Cache{dir: dir}).shardPath(shardOf(key))
		if err := os.WriteFile(path, shard, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if errors.Is(err, bufio.ErrTooLong) {
			return // a line past the scanner's limit is refused, not loaded
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, s, Sample{PowerW: 42}); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c, err = OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got, ok := c.Get(key); !ok || got.PowerW != 42 {
			t.Fatalf("record put after loading the shard was lost on reopen: %+v, %t", got, ok)
		}
	})
}

func TestCacheInMemory(t *testing.T) {
	c, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	s := specN(0)
	if err := c.Put(s.Key(), s, Sample{PowerW: 5}); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(s.Key()); !ok || got.PowerW != 5 {
		t.Fatalf("in-memory Get: %+v, %t", got, ok)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardOfCoversAllShards(t *testing.T) {
	for _, k := range []string{"0", "9", "a", "f", "5abc"} {
		s := shardOf(k)
		if s < 0 || s >= cacheShards {
			t.Fatalf("shardOf(%q) = %d", k, s)
		}
	}
	if shardOf("") != 0 || shardOf("z") != 0 {
		t.Fatal("invalid key prefixes must map to shard 0")
	}
}
