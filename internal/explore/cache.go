package explore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// cacheShards is the number of append-only JSONL files a cache directory
// is split into. Sharding by key prefix keeps individual files small
// enough to tail-inspect and lets a future campaign runner load shards
// concurrently; 16 divides the first hex digit evenly.
const cacheShards = 16

// CacheStats are a cache's cumulative counters since Open.
type CacheStats struct {
	// Hits and Misses count Get outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts records appended this session; Loaded counts records
	// recovered from disk at Open.
	Puts   int64 `json:"puts"`
	Loaded int64 `json:"loaded"`
}

// HitRate is hits/(hits+misses) in percent, 0 when no Gets happened.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is the content-addressed result store: an in-memory index over
// append-only JSONL shard files. Keys are Spec.Key() content hashes, so
// any two campaigns that evaluate the same specification share results
// regardless of how their sampling reached it. Get/Put are safe for
// concurrent use by sweep workers.
//
// Durability model: every Put appends one JSON line and flushes it to
// the OS before returning, so a killed process loses at most the record
// being written; Open tolerates a truncated trailing line (it is
// skipped, and the point simply re-evaluates on the next run), and the
// next Put to that shard starts a fresh line after it. This is
// what makes a killed campaign resumable: Run re-proposes the same
// points on a rerun and finds every recorded one here. Records are
// never rewritten — the newest occurrence of a key wins at load, which
// also makes concurrent append-only writers from separate campaigns
// safe on the same directory.
type Cache struct {
	dir string

	mu    sync.Mutex
	idx   map[string]Sample
	files [cacheShards]*os.File
	bufs  [cacheShards]*bufio.Writer
	stats CacheStats
}

// cacheRecord is one JSONL line of a shard file.
type cacheRecord struct {
	Key    string `json:"key"`
	Spec   Spec   `json:"spec"`
	Sample Sample `json:"sample"`
}

// OpenCache opens (creating if needed) the cache rooted at dir and loads
// every shard into the in-memory index. An empty dir returns a purely
// in-memory cache: same semantics, nothing persisted.
func OpenCache(dir string) (*Cache, error) {
	c := &Cache{dir: dir, idx: make(map[string]Sample)}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("explore: cache dir: %w", err)
	}
	for s := 0; s < cacheShards; s++ {
		path := c.shardPath(s)
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("explore: cache shard: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			var rec cacheRecord
			// A torn trailing line (the process died mid-append) fails to
			// parse; skip it rather than failing the whole campaign — the
			// point just re-evaluates.
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Key == "" {
				continue
			}
			c.idx[rec.Key] = rec.Sample
			c.stats.Loaded++
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("explore: cache shard %s: %w", path, err)
		}
	}
	return c, nil
}

func (c *Cache) shardPath(s int) string {
	return filepath.Join(c.dir, fmt.Sprintf("results-%02x.jsonl", s))
}

// shardOf maps a key to its shard by the key's first hex digit.
func shardOf(key string) int {
	if len(key) == 0 {
		return 0
	}
	d := key[0]
	switch {
	case d >= '0' && d <= '9':
		return int(d - '0')
	case d >= 'a' && d <= 'f':
		return int(d-'a') + 10
	}
	return 0
}

// Get returns the cached sample for key and whether it was present,
// counting the lookup as a hit or miss.
func (c *Cache) Get(key string) (Sample, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.idx[key]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return s, ok
}

// Put indexes the sample under key and, for a persistent cache, appends
// and flushes its JSONL record. The spec rides along in the record so a
// shard file is self-describing (auditable and re-indexable without the
// campaign that wrote it).
func (c *Cache) Put(key string, spec Spec, s Sample) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx[key] = s
	c.stats.Puts++
	if c.dir == "" {
		return nil
	}
	sh := shardOf(key)
	if c.files[sh] == nil {
		if err := c.openShard(sh); err != nil {
			return fmt.Errorf("explore: cache append: %w", err)
		}
	}
	b, err := json.Marshal(cacheRecord{Key: key, Spec: spec, Sample: s})
	if err != nil {
		return err
	}
	w := c.bufs[sh]
	w.Write(b)
	w.WriteByte('\n')
	return w.Flush()
}

// openShard opens shard sh for appending. A shard that does not end in
// '\n' ends in a torn record; a newline goes into the buffer first so the
// next record starts its own line instead of extending the torn one and
// failing to parse with it. Existing bytes are never truncated or
// rewritten, which concurrent append-only writers rely on.
func (c *Cache) openShard(sh int) error {
	f, err := os.OpenFile(c.shardPath(sh), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	torn, err := endsTorn(f)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(f)
	if torn {
		w.WriteByte('\n')
	}
	c.files[sh], c.bufs[sh] = f, w
	return nil
}

// endsTorn reports whether f is non-empty and its last byte is not '\n'.
func endsTorn(f *os.File) (bool, error) {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return false, err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], fi.Size()-1); err != nil {
		return false, err
	}
	return last[0] != '\n', nil
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close flushes and closes every open shard file.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for s := range c.files {
		if c.files[s] == nil {
			continue
		}
		if err := c.bufs[s].Flush(); err != nil && first == nil {
			first = err
		}
		if err := c.files[s].Close(); err != nil && first == nil {
			first = err
		}
		c.files[s], c.bufs[s] = nil, nil
	}
	return first
}
