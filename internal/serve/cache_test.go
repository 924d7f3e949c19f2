package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/readsim"
)

// cacheFixture builds a small read set and base options for cache tests.
func cacheFixture(t *testing.T, genomeLen int, seed int64) (pipeline.Options, [][]byte) {
	t.Helper()
	reads := readsim.Seqs(readsim.Generate(readsim.CElegansLike, genomeLen, seed).Reads)
	opt := pipeline.PresetOptions(readsim.CElegansLike, 4)
	opt.Threads = 1
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	return opt, reads
}

// coldManifest runs opt/reads through the bare pipeline and returns the run
// manifest — the ground truth cached runs must reproduce bit-identically.
func coldManifest(t *testing.T, opt pipeline.Options, reads [][]byte) *obs.Manifest {
	t.Helper()
	opt.Trace = obs.NewTrace(opt.P)
	eng, err := pipeline.Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), reads)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	return out.Manifest()
}

// assemble runs one cache-mediated assembly with fresh per-run observability
// (mirroring the daemon's per-job isolation) and returns its manifest plus
// the hit/miss report.
func assemble(t *testing.T, c *Cache, opt pipeline.Options, reads [][]byte) (*obs.Manifest, string) {
	t.Helper()
	opt.Trace = obs.NewTrace(opt.P)
	out, how, err := c.Assemble(context.Background(), opt, reads)
	if err != nil {
		t.Fatalf("cache assemble: %v", err)
	}
	return out.Manifest(), how
}

// TestCacheHitMatchesCold is the artifact cache's correctness gate: a job
// differing from a committed entry only downstream of Alignment must hit,
// skip alignment entirely (align.cells = 0 in its own metrics), and still
// produce a manifest bit-identical to a cold run at the same options —
// contigs checksum and comm totals included, because the checkpoint restores
// the upstream traffic the resumed run never re-sent.
func TestCacheHitMatchesCold(t *testing.T) {
	opt, reads := cacheFixture(t, 15000, 7)
	optA, optB := opt, opt
	optA.TRFuzz = 150
	optB.TRFuzz = 500
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	if _, how := assemble(t, c, optA, reads); how != "miss" {
		t.Fatalf("first job: %q, want miss", how)
	}
	got, how := assemble(t, c, optB, reads)
	if how != "hit" {
		t.Fatalf("swept job: %q, want hit (prefixes: A %s, B %s)", how,
			optA.FingerprintThrough(CacheStage), optB.FingerprintThrough(CacheStage))
	}
	want := coldManifest(t, optB, reads)
	if got.Contigs != want.Contigs {
		t.Errorf("hit contigs %+v, cold %+v", got.Contigs, want.Contigs)
	}
	if got.Comm != want.Comm {
		t.Errorf("hit comm %+v, cold %+v", got.Comm, want.Comm)
	}
	if cells := metricSum(t, got, "align.cells"); cells != 0 {
		t.Errorf("hit performed %d alignment cells, want 0 (metrics counted work the hit skipped)", cells)
	}
	if cells := metricSum(t, want, "align.cells"); cells == 0 {
		t.Error("cold run reports 0 alignment cells; the hit assertion proves nothing")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

// TestCacheKeySensitivity: any in-prefix option change or a different read
// set must miss — only downstream-of-Alignment changes may reuse an entry.
func TestCacheKeySensitivity(t *testing.T) {
	opt, reads := cacheFixture(t, 15000, 3)
	_, otherReads := cacheFixture(t, 15000, 4)

	inPrefix := opt
	inPrefix.XDrop += 5
	downstream := opt
	downstream.TRFuzz += 100
	key := Key(opt, reads)
	for name, miss := range map[string]string{
		"in-prefix xdrop change": Key(inPrefix, reads),
		"different reads":        Key(opt, otherReads),
	} {
		if miss == key {
			t.Errorf("%s: key unchanged (%s)", name, key)
		}
	}
	if k := Key(downstream, reads); k != key {
		t.Errorf("downstream tr_fuzz change moved the key: %s vs %s", k, key)
	}
	if testing.Short() {
		// The pure Key() table above runs everywhere; the four end-to-end
		// assemblies below ride the full (non-short) CI lap.
		return
	}

	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, how := assemble(t, c, opt, reads); how != "miss" {
		t.Fatalf("cold: %q", how)
	}
	if _, how := assemble(t, c, inPrefix, reads); how != "miss" {
		t.Fatalf("in-prefix change: %q, want miss", how)
	}
	if _, how := assemble(t, c, opt, otherReads); how != "miss" {
		t.Fatalf("different reads: %q, want miss", how)
	}
	if _, how := assemble(t, c, downstream, reads); how != "hit" {
		t.Fatalf("downstream change: %q, want hit", how)
	}
}

// TestCacheReopen: committed entries survive a daemon restart — a fresh
// OpenCache over the same directory indexes them and serves hits.
func TestCacheReopen(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline cache test; runs in the non-short CI lap")
	}
	opt, reads := cacheFixture(t, 15000, 9)
	dir := t.TempDir()
	c1, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, how := assemble(t, c1, opt, reads); how != "miss" {
		t.Fatalf("first run: %q", how)
	}

	// The commit marker is the checkpoint's manifest, published by
	// pipeline.WriteFileAtomic. It must leave no temp file beside it, and
	// replaying the write (an interrupted commit, retried) must replace the
	// marker whole: the reopened cache below still indexes and hits the entry.
	entDir := filepath.Join(dir, Key(opt, reads))
	man := marker(entDir)
	blob, err := os.ReadFile(man)
	if err != nil {
		t.Fatalf("committed entry has no marker: %v", err)
	}
	if err := pipeline.WriteFileAtomic(man, blob); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(man + ".tmp-*"); len(tmps) != 0 {
		t.Fatalf("atomic write left temp files behind: %v", tmps)
	}
	// Entries written by earlier builds also hold an ENTRY.json marker; the
	// reopened cache must index and hit them all the same.
	if err := os.WriteFile(filepath.Join(entDir, "ENTRY.json"), []byte(`{"key":"`+filepath.Base(entDir)+`"}`), 0o666); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 1 || st.Bytes == 0 {
		t.Fatalf("reopened cache stats %+v, want the committed entry indexed", st)
	}
	swept := opt
	swept.TRFuzz += 200
	got, how := assemble(t, c2, swept, reads)
	if how != "hit" {
		t.Fatalf("post-reopen: %q, want hit", how)
	}
	if want := coldManifest(t, swept, reads); got.Contigs != want.Contigs {
		t.Errorf("post-reopen hit contigs %+v, cold %+v", got.Contigs, want.Contigs)
	}
}

// TestCacheCorruptEntryFallsBack: a hit whose on-disk entry no longer loads
// (bit rot, torn write) is dropped and the job silently re-aligns — a
// damaged cache costs time, never output.
func TestCacheCorruptEntryFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline cache test; runs in the non-short CI lap")
	}
	opt, reads := cacheFixture(t, 15000, 21)
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, how := assemble(t, c, opt, reads); how != "miss" {
		t.Fatalf("first run: %q", how)
	}
	// Truncate every rank file inside the committed entry.
	key := Key(opt, reads)
	ranks, err := filepath.Glob(filepath.Join(dir, key, CacheStage, "rank-*"))
	if err != nil || len(ranks) == 0 {
		t.Fatalf("no rank files under the entry (err %v)", err)
	}
	for _, path := range ranks {
		if err := os.Truncate(path, 10); err != nil {
			t.Fatal(err)
		}
	}
	got, how := assemble(t, c, opt, reads)
	if how != "miss" {
		t.Fatalf("corrupt entry: %q, want miss (fallback to cold)", how)
	}
	if want := coldManifest(t, opt, reads); got.Contigs != want.Contigs {
		t.Errorf("fallback contigs %+v, cold %+v", got.Contigs, want.Contigs)
	}
	// The recomputed entry replaced the damaged one and serves hits again.
	if _, how := assemble(t, c, opt, reads); how != "hit" {
		t.Fatalf("after recompute: %q, want hit", how)
	}
}

// TestCacheStaleSchemaEntryRunsCold: a cache directory written by a build with
// the previous checkpoint schema survives a daemon upgrade as nothing worse
// than a cold run — the entry is indexed at startup (its manifest exists),
// refused by LoadCheckpoint for its schema, dropped without counting as an
// eviction, recomputed and replaced. The job never fails.
func TestCacheStaleSchemaEntryRunsCold(t *testing.T) {
	opt, reads := cacheFixture(t, 6000, 23)
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, how := assemble(t, c, opt, reads)
	if how != "miss" {
		t.Fatalf("first run: %q", how)
	}
	// Relabel the committed checkpoint as the previous schema, the way a v3
	// build left it.
	manPath := filepath.Join(dir, Key(opt, reads), CacheStage, pipeline.CheckpointManifestName)
	blob, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Replace(blob, []byte(pipeline.CheckpointSchema), []byte("elba/checkpoint/v3"), 1)
	if bytes.Equal(stale, blob) {
		t.Fatalf("manifest %s does not carry schema %q", manPath, pipeline.CheckpointSchema)
	}
	if err := os.WriteFile(manPath, stale, 0o666); err != nil {
		t.Fatal(err)
	}
	// The upgraded daemon starts on the old directory.
	c, err = OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("reopened cache indexes %d entries, want the stale one", st.Entries)
	}
	got, how := assemble(t, c, opt, reads)
	if how != "miss" {
		t.Fatalf("stale-schema entry: %q, want miss (cold run)", how)
	}
	if got.Contigs != want.Contigs {
		t.Errorf("cold rerun contigs %+v, original %+v", got.Contigs, want.Contigs)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 || st.Misses != 1 {
		t.Errorf("after the rerun: %+v, want one (recomputed) entry, no eviction, one miss", st)
	}
	if blob, err := os.ReadFile(manPath); err != nil || !bytes.Contains(blob, []byte(pipeline.CheckpointSchema)) {
		t.Errorf("the stale entry was not replaced by a current-schema one (err %v)", err)
	}
	if _, how := assemble(t, c, opt, reads); how != "hit" {
		t.Fatalf("after recompute: %q, want hit", how)
	}
}

// TestCacheEviction: under a budget that fits one entry but not two, a new
// commit evicts the LRU entry, and the survivor still loads bit-identically —
// eviction never corrupts committed entries.
func TestCacheEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline cache test; runs in the non-short CI lap")
	}
	optA, reads := cacheFixture(t, 15000, 31)
	optB := optA
	optB.XDrop += 5 // in-prefix: a second, distinct entry

	// Measure entry sizes with an unbounded throwaway cache.
	probe, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assemble(t, probe, optA, reads)
	sizeA := probe.Stats().Bytes
	assemble(t, probe, optB, reads)
	sizeB := probe.Stats().Bytes - sizeA
	if sizeA == 0 || sizeB == 0 {
		t.Fatalf("probe entry sizes %d/%d", sizeA, sizeB)
	}

	// Budget fits either entry alone, never both.
	budget := max(sizeA, sizeB) + min(sizeA, sizeB)/2
	c, err := OpenCache(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	if _, how := assemble(t, c, optA, reads); how != "miss" {
		t.Fatalf("A: %q", how)
	}
	if _, how := assemble(t, c, optB, reads); how != "miss" {
		t.Fatalf("B: %q", how)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats after displacement %+v, want 1 eviction / 1 entry", st)
	}
	if st.Bytes > budget {
		t.Fatalf("cache holds %d bytes over budget %d", st.Bytes, budget)
	}
	// The survivor (B) serves an uncorrupted hit…
	got, how := assemble(t, c, optB, reads)
	if how != "hit" {
		t.Fatalf("survivor: %q, want hit", how)
	}
	if want := coldManifest(t, optB, reads); got.Contigs != want.Contigs {
		t.Errorf("survivor contigs %+v, cold %+v", got.Contigs, want.Contigs)
	}
	// …and the evicted key left no readable debris: A misses and recommits,
	// displacing B in turn.
	if _, how := assemble(t, c, optA, reads); how != "miss" {
		t.Fatalf("evicted key: %q, want miss", how)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("stats after re-displacement %+v, want 2 evictions / 1 entry", st)
	}
}

// TestNilCacheRunsCold: a daemon without -cache still assembles, reporting
// neither hit nor miss.
func TestNilCacheRunsCold(t *testing.T) {
	opt, reads := cacheFixture(t, 15000, 41)
	var c *Cache
	out, how, err := c.Assemble(context.Background(), opt, reads)
	if err != nil {
		t.Fatal(err)
	}
	if how != "" {
		t.Fatalf("nil cache reported %q", how)
	}
	if len(out.Contigs) == 0 {
		t.Fatal("nil-cache run produced no contigs")
	}
}
