package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// CacheStage is the stage boundary cache entries snapshot. Alignment is the
// cost cliff the paper measures (Figure 5: alignment dominates wall time),
// and everything downstream of it — the TR and contig-generation parameters
// users actually sweep — is outside the entry's option prefix, so one cached
// alignment serves the whole sweep.
const CacheStage = pipeline.StageAlignment

// Cache is the content-addressed artifact store behind the daemon: each
// entry is one committed post-Alignment pipeline checkpoint, keyed by
// (read-set checksum, options-prefix fingerprint through Alignment) and
// stored under its key as <key>/Alignment/. The checkpoint's own
// MANIFEST.json (which records the stage, reads checksum and prefix
// fingerprint) is the entry's commit marker: a directory without one is
// garbage from an interrupted commit or eviction, removed at startup, and
// eviction deletes it first, so a crash mid-removal never leaves a
// half-deleted directory that still looks committed. A job
// whose key matches resumes via Engine.LoadCheckpoint/ResumeFrom instead of
// re-aligning; a miss runs cold with CheckpointDir pointed at a staging
// directory and commits the result with one atomic rename. Entries are
// evicted least-recently-used by byte budget; in-flight loads hold a
// refcount so eviction never deletes an entry under a reader.
type Cache struct {
	dir    string
	budget int64 // bytes; <= 0 means unlimited

	// Counters live in an internal/obs registry so the daemon's /cache
	// endpoint and tests read them with the same snapshot machinery as the
	// pipeline's own metrics.
	reg       *obs.Registry
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter

	mu      sync.Mutex
	entries map[string]*cacheEntry
	bytes   int64
}

type cacheEntry struct {
	key      string
	dir      string
	bytes    int64
	lastUsed time.Time
	refs     int
}

// OpenCache opens (creating if needed) the cache rooted at dir with the
// given byte budget (<= 0: unlimited). Leftover staging directories and
// uncommitted entries from an interrupted process are removed; committed
// entries are indexed with their manifest's mtime as the LRU timestamp, so
// recency survives restarts. A directory under the wrong key is indexed
// too: LoadCheckpoint refuses its fingerprint or checksum on the first hit,
// which drops it and runs cold, like any damaged entry.
func OpenCache(dir string, budget int64) (*Cache, error) {
	reg := obs.NewRegistry()
	c := &Cache{
		dir: dir, budget: budget,
		reg:       reg,
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
		entries:   map[string]*cacheEntry{},
	}
	if err := os.RemoveAll(filepath.Join(dir, "staging")); err != nil {
		return nil, fmt.Errorf("serve: clearing cache staging: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "staging"), 0o777); err != nil {
		return nil, fmt.Errorf("serve: opening cache: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning cache: %w", err)
	}
	for _, ent := range ents {
		if !ent.IsDir() || ent.Name() == "staging" {
			continue
		}
		entDir := filepath.Join(dir, ent.Name())
		st, err := os.Stat(marker(entDir))
		if err != nil {
			// No commit marker: garbage from an interrupted commit/eviction.
			if err := os.RemoveAll(entDir); err != nil {
				return nil, fmt.Errorf("serve: removing uncommitted cache entry %s: %w", entDir, err)
			}
			continue
		}
		size, err := dirSize(entDir)
		if err != nil {
			return nil, fmt.Errorf("serve: sizing cache entry %s: %w", entDir, err)
		}
		e := &cacheEntry{key: ent.Name(), dir: entDir, bytes: size, lastUsed: st.ModTime()}
		c.entries[e.key] = e
		c.bytes += e.bytes
	}
	return c, nil
}

// Key derives the content address for reads assembled under opt: the
// read-set checksum plus the options-prefix fingerprint through CacheStage —
// the same FingerprintThrough the checkpoint inside the entry embeds, so the
// cache and LoadCheckpoint can never disagree about what matches.
func Key(opt pipeline.Options, reads [][]byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "elba/cache/v1 reads=%s prefix=%s",
		obs.ChecksumSeqs(reads), opt.FingerprintThrough(CacheStage))
	return hex.EncodeToString(h.Sum(nil))[:40]
}

// CacheStats is the /cache endpoint payload.
type CacheStats struct {
	Dir       string `json:"dir"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget"` // 0: unlimited
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
}

// Stats snapshots the cache's occupancy and counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	budget := c.budget
	if budget < 0 {
		budget = 0
	}
	return CacheStats{
		Dir: c.dir, Entries: len(c.entries), Bytes: c.bytes, Budget: budget,
		Hits: c.hits.Value(), Misses: c.misses.Value(), Evictions: c.evictions.Value(),
	}
}

// entryLoadError marks a hit whose on-disk entry failed to load (corrupt,
// truncated, evicted by another process): the caller drops the entry and
// falls back to a cold run instead of failing the job.
type entryLoadError struct{ err error }

func (e entryLoadError) Error() string { return e.err.Error() }
func (e entryLoadError) Unwrap() error { return e.err }

// Assemble runs reads under opt through the cache: a key match resumes from
// the shared post-Alignment entry, a miss runs cold and commits one. The
// second return value reports which ("hit" or "miss") for the job's manifest
// and is valid only when err is nil. A nil cache runs cold without
// checkpointing and reports "". Contigs and traffic counters are
// bit-identical between a hit and a cold run at the same options — the
// checkpoint round-trip equivalence the pipeline suite enforces.
func (c *Cache) Assemble(ctx context.Context, opt pipeline.Options, reads [][]byte, observers ...pipeline.Observer) (*pipeline.Output, string, error) {
	if c == nil {
		eng, err := pipeline.Plan(opt, observers...)
		if err != nil {
			return nil, "", err
		}
		out, err := eng.Run(ctx, reads)
		return out, "", err
	}
	key := Key(opt, reads)
	if ent := c.acquire(key); ent != nil {
		out, err := c.resume(ctx, opt, reads, ent, observers...)
		c.release(ent)
		switch {
		case err == nil:
			c.hits.Add(1)
			return out, "hit", nil
		case errors.As(err, &entryLoadError{}) && ctx.Err() == nil:
			// The entry is unreadable (bit rot, torn files): drop it and
			// align from scratch — a damaged cache costs time, never output.
			c.drop(key)
		default:
			return nil, "", err
		}
	}
	c.misses.Add(1)
	staging, err := os.MkdirTemp(filepath.Join(c.dir, "staging"), "job-*")
	if err != nil {
		return nil, "", fmt.Errorf("serve: cache staging: %w", err)
	}
	copt := opt
	copt.CheckpointDir = staging
	copt.CheckpointEvery = CacheStage
	eng, err := pipeline.Plan(copt, observers...)
	if err != nil {
		os.RemoveAll(staging)
		return nil, "", err
	}
	out, err := eng.Run(ctx, reads)
	if err != nil {
		os.RemoveAll(staging)
		return nil, "", err
	}
	// Commit failures (budget too small for the entry, full of in-use
	// entries, disk errors) degrade reuse, not the finished job.
	if err := c.commit(key, staging); err != nil {
		os.RemoveAll(staging)
	}
	return out, "miss", nil
}

// resume finishes an assembly from a committed entry: LoadCheckpoint
// verifies the prefix fingerprint and per-rank hashes, ResumeFrom runs the
// remaining stages under the job's (possibly downstream-different) options.
func (c *Cache) resume(ctx context.Context, opt pipeline.Options, reads [][]byte, ent *cacheEntry, observers ...pipeline.Observer) (*pipeline.Output, error) {
	eng, err := pipeline.Plan(opt, observers...)
	if err != nil {
		return nil, err
	}
	arts, err := eng.LoadCheckpoint(ctx, reads, ent.dir)
	if err != nil {
		return nil, entryLoadError{err}
	}
	defer arts.Close()
	fin, err := eng.ResumeFrom(ctx, arts, pipeline.StageExtractContig)
	if err != nil {
		return nil, err
	}
	return fin.Output()
}

// acquire looks up key and pins the entry against eviction (refcount) while
// a load is in flight. Returns nil on a miss.
func (c *Cache) acquire(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.entries[key]
	if ent == nil {
		return nil
	}
	ent.refs++
	ent.lastUsed = time.Now()
	// Persist recency so the LRU order survives a daemon restart.
	os.Chtimes(marker(ent.dir), ent.lastUsed, ent.lastUsed)
	return ent
}

func (c *Cache) release(ent *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent.refs--
}

// drop removes a damaged entry without counting it as an eviction.
func (c *Cache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent := c.entries[key]; ent != nil && ent.refs == 0 {
		c.removeLocked(ent)
	}
}

// commit publishes a staged checkpoint, whose manifest the engine already
// committed, as the entry for key: LRU entries are evicted until the budget
// fits, and one rename moves the whole directory under its content address —
// the commit point. A concurrent commit of the same key keeps the first
// winner.
func (c *Cache) commit(key, staging string) error {
	size, err := dirSize(staging)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return os.RemoveAll(staging)
	}
	if c.budget > 0 {
		if size > c.budget {
			os.RemoveAll(staging)
			return fmt.Errorf("serve: cache entry (%d bytes) exceeds the whole budget (%d)", size, c.budget)
		}
		for c.bytes+size > c.budget {
			victim := c.lruIdleLocked()
			if victim == nil {
				os.RemoveAll(staging)
				return fmt.Errorf("serve: cache budget full of in-use entries")
			}
			c.removeLocked(victim)
			c.evictions.Add(1)
		}
	}
	final := filepath.Join(c.dir, key)
	if err := os.Rename(staging, final); err != nil {
		os.RemoveAll(staging)
		return err
	}
	c.entries[key] = &cacheEntry{key: key, dir: final, bytes: size, lastUsed: time.Now()}
	c.bytes += size
	return nil
}

// lruIdleLocked picks the least-recently-used entry no load currently pins.
func (c *Cache) lruIdleLocked() *cacheEntry {
	var victim *cacheEntry
	for _, ent := range c.entries {
		if ent.refs > 0 {
			continue
		}
		if victim == nil || ent.lastUsed.Before(victim.lastUsed) {
			victim = ent
		}
	}
	return victim
}

// removeLocked deletes an entry: the commit marker first (uncommitting it,
// so an interrupted removal is startup garbage, never a corrupt committed
// entry), then the payload.
func (c *Cache) removeLocked(ent *cacheEntry) {
	os.Remove(marker(ent.dir))
	os.RemoveAll(ent.dir)
	delete(c.entries, ent.key)
	c.bytes -= ent.bytes
}

// marker is the commit marker of the entry in dir: its checkpoint's manifest.
func marker(dir string) string {
	return filepath.Join(dir, CacheStage, pipeline.CheckpointManifestName)
}

// dirSize sums the regular-file bytes under root.
func dirSize(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
