//! On-disk layer of the analysis and pass caches: warm sweeps across
//! processes and shards.
//!
//! A [`GlobalAnalysisCache`] memoizes throughput analyses and a
//! [`PassCache`] memoizes pass outputs within one process. This module
//! persists both under a directory (`--cache-dir DIR`) so the next run —
//! the same process re-invoked, or the *other shards* of a split sweep —
//! starts warm. Both layers go through one loader and one writer:
//!
//! * **Format.** One JSON object per line
//!   ([`mamps_sdf::cache::CacheEntry`] / [`mamps_sdf::passes::PassEntry`],
//!   canonical bytes), seq-free: lines are keyed by the entry itself, so
//!   files can be concatenated, truncated or partially written without
//!   any ordering contract. Entries are exported sorted by key, so equal
//!   caches produce identical files.
//! * **Naming.** Each run writes `analysis-cache-<index>-of-<count>.jsonl`
//!   and `pass-cache-<index>-of-<count>.jsonl` for its own [`ShardSpec`] —
//!   concurrent shard processes sharing one `--cache-dir` never write the
//!   same file — and loads every `*.jsonl` of its layer in the directory
//!   on startup, whichever shard produced it.
//! * **Robustness.** The cache is advisory: a line that fails to parse
//!   (torn tail of a killed run, foreign file) is skipped and counted,
//!   never an error — the worst case is re-analysing a design point.
//!   Files are written to a temporary name and renamed into place, so a
//!   reader never observes a half-written cache file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mamps_sdf::cache::GlobalAnalysisCache;
use mamps_sdf::passes::PassCache;
use serde::{Deserialize, Serialize};

use crate::dse::shard::ShardSpec;

/// What loading a cache directory found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDirLoad {
    /// `*.jsonl` files read.
    pub files: usize,
    /// Entries imported into the in-memory cache (first occurrence of
    /// each key wins; later duplicates are not counted).
    pub imported: usize,
    /// Lines skipped because they did not parse as a cache entry.
    pub skipped_lines: usize,
}

impl std::fmt::Display for CacheDirLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries from {} file{}",
            self.imported,
            self.files,
            if self.files == 1 { "" } else { "s" }
        )?;
        if self.skipped_lines > 0 {
            write!(f, " ({} unparseable lines skipped)", self.skipped_lines)?;
        }
        Ok(())
    }
}

/// File-name prefix of the pass-cache layer's files.
const PASS_CACHE_PREFIX: &str = "pass-cache-";

/// Loads every `*.jsonl` file of `dir` whose name `layer` accepts, in
/// name order (so which duplicate of a key wins is deterministic),
/// handing each file's parsed entries to `import`. A missing directory
/// loads nothing; a line that does not parse as an `E` is skipped and
/// counted.
fn load_jsonl<E: for<'de> Deserialize<'de>>(
    dir: &Path,
    layer: impl Fn(&str) -> bool,
    mut import: impl FnMut(Vec<E>) -> usize,
) -> io::Result<CacheDirLoad> {
    let mut load = CacheDirLoad::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(load),
        Err(e) => return Err(e),
    };
    let mut files: Vec<PathBuf> = entries
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .filter(|p| layer(p.file_name().and_then(|n| n.to_str()).unwrap_or("")))
        .collect();
    files.sort();
    for path in files {
        let text = fs::read_to_string(&path)?;
        let mut parsed: Vec<E> = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            match serde::json::from_str::<E>(line) {
                Ok(e) => parsed.push(e),
                Err(_) => load.skipped_lines += 1,
            }
        }
        load.imported += import(parsed);
        load.files += 1;
    }
    Ok(load)
}

/// Writes `entries` as canonical JSON lines to `dir/name` (creating the
/// directory if needed) through a temporary file renamed into place, so
/// concurrent loaders see either the old or the new file, never a torn
/// one.
fn persist_jsonl<E: Serialize>(dir: &Path, name: String, entries: &[E]) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let mut out = String::new();
    for entry in entries {
        serde::json::emit(&entry.to_value(), &mut out);
        out.push('\n');
    }
    let tmp = dir.join(format!(".{name}.tmp"));
    let path = dir.join(name);
    fs::write(&tmp, out)?;
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Loads every `*.jsonl` file of `dir` except the pass-cache layer's
/// into `cache`. A missing directory is an empty cache, not an error (the
/// run will create it on persist).
///
/// # Errors
///
/// Only real I/O errors (unreadable directory or file); parse failures
/// are skipped and counted in [`CacheDirLoad::skipped_lines`].
pub fn load_cache_dir(cache: &GlobalAnalysisCache, dir: &Path) -> io::Result<CacheDirLoad> {
    load_jsonl(
        dir,
        |n| !n.starts_with(PASS_CACHE_PREFIX),
        |e| cache.import(e),
    )
}

/// Loads every `pass-cache-*.jsonl` file of `dir` into `cache`, with the
/// same contract as [`load_cache_dir`].
///
/// # Errors
///
/// Only real I/O errors (unreadable directory or file).
pub fn load_pass_cache_dir(cache: &PassCache, dir: &Path) -> io::Result<CacheDirLoad> {
    load_jsonl(
        dir,
        |n| n.starts_with(PASS_CACHE_PREFIX),
        |e| cache.import(e),
    )
}

/// The cache file a run of shard `spec` owns inside `dir`.
pub fn cache_file_name(spec: ShardSpec) -> String {
    format!("analysis-cache-{}-of-{}.jsonl", spec.index, spec.count)
}

/// Persists `cache`, sorted by key, to its shard-owned file in `dir` and
/// returns the written path.
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn persist_cache(
    cache: &GlobalAnalysisCache,
    dir: &Path,
    spec: ShardSpec,
) -> io::Result<PathBuf> {
    persist_jsonl(dir, cache_file_name(spec), &cache.export())
}

/// The pass-cache file a run of shard `spec` owns inside `dir`.
pub fn pass_cache_file_name(spec: ShardSpec) -> String {
    format!("{PASS_CACHE_PREFIX}{}-of-{}.jsonl", spec.index, spec.count)
}

/// Persists `cache` to its shard-owned `pass-cache-*` file in `dir`, with
/// the same atomicity and determinism contract as [`persist_cache`].
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn persist_pass_cache(cache: &PassCache, dir: &Path, spec: ShardSpec) -> io::Result<PathBuf> {
    persist_jsonl(dir, pass_cache_file_name(spec), &cache.export())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamps_sdf::graph::SdfGraphBuilder;
    use mamps_sdf::state_space::AnalysisOptions;

    fn populated_cache() -> GlobalAnalysisCache {
        let cache = GlobalAnalysisCache::new();
        for n in 2..6u64 {
            let mut b = SdfGraphBuilder::new("g");
            let a = b.add_actor("a", n);
            let c = b.add_actor("b", 1);
            b.add_channel_with_tokens("e", a, 1, c, 1, 2);
            b.add_channel_with_tokens("r", c, 1, a, 1, 2);
            let g = b.build().unwrap();
            cache
                .throughput(&g, &AnalysisOptions::default())
                .expect("bounded two-actor ring analyses");
        }
        cache
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mamps-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persist_then_load_round_trips() {
        let dir = tempdir("roundtrip");
        let cache = populated_cache();
        let path = persist_cache(&cache, &dir, ShardSpec::full()).unwrap();
        assert!(path.ends_with("analysis-cache-0-of-1.jsonl"));

        let warm = GlobalAnalysisCache::new();
        let load = load_cache_dir(&warm, &dir).unwrap();
        assert_eq!(load.files, 1);
        assert_eq!(load.imported, cache.len());
        assert_eq!(load.skipped_lines, 0);
        assert_eq!(warm.export(), cache.export());

        // Persisting the re-loaded cache reproduces identical bytes.
        let again = persist_cache(&warm, &dir, ShardSpec::full()).unwrap();
        assert_eq!(
            fs::read_to_string(&again).unwrap(),
            fs::read_to_string(&path).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_cache() {
        let warm = GlobalAnalysisCache::new();
        let load = load_cache_dir(&warm, Path::new("/nonexistent/mamps-cache")).unwrap();
        assert_eq!(load, CacheDirLoad::default());
        assert!(warm.is_empty());
    }

    #[test]
    fn unparseable_lines_are_skipped_not_fatal() {
        let dir = tempdir("torn");
        let cache = populated_cache();
        let path = persist_cache(&cache, &dir, ShardSpec::new(1, 4).unwrap()).unwrap();
        assert!(path.ends_with("analysis-cache-1-of-4.jsonl"));
        // Tear the last line mid-record and append garbage, as a killed
        // writer (without the atomic rename) might have.
        let text = fs::read_to_string(&path).unwrap();
        let torn = format!("{}\nnot json\n", &text[..text.len() - 9]);
        fs::write(&path, torn).unwrap();

        let warm = GlobalAnalysisCache::new();
        let load = load_cache_dir(&warm, &dir).unwrap();
        assert_eq!(load.skipped_lines, 2);
        assert_eq!(load.imported, cache.len() - 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pass_cache_round_trips_and_stays_out_of_analysis_load() {
        use serde::Value;
        let dir = tempdir("pass");
        let passes = PassCache::new();
        passes.insert(
            "bind",
            7,
            Value::Seq(vec![Value::Int(1), Value::Str("x".into())]),
        );
        passes.insert(
            "buffer-size",
            9,
            Value::Map(vec![("Ok".into(), Value::Int(3))]),
        );
        let path = persist_pass_cache(&passes, &dir, ShardSpec::full()).unwrap();
        assert!(path.ends_with("pass-cache-0-of-1.jsonl"));

        // Also persist an analysis cache into the same directory.
        let analysis = populated_cache();
        persist_cache(&analysis, &dir, ShardSpec::full()).unwrap();

        // Each loader sees only its own layer, with no skipped lines.
        let warm_pass = PassCache::new();
        let load = load_pass_cache_dir(&warm_pass, &dir).unwrap();
        assert_eq!((load.files, load.imported, load.skipped_lines), (1, 2, 0));
        assert_eq!(warm_pass.export(), passes.export());

        let warm_analysis = GlobalAnalysisCache::new();
        let load = load_cache_dir(&warm_analysis, &dir).unwrap();
        assert_eq!(
            (load.files, load.imported, load.skipped_lines),
            (1, analysis.len(), 0)
        );

        // Re-persisting the re-loaded pass cache reproduces identical bytes.
        let again = persist_pass_cache(&warm_pass, &dir, ShardSpec::full()).unwrap();
        assert_eq!(
            fs::read_to_string(&again).unwrap(),
            fs::read_to_string(&path).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_pass_cache() {
        let warm = PassCache::new();
        let load = load_pass_cache_dir(&warm, Path::new("/nonexistent/mamps-cache")).unwrap();
        assert_eq!(load, CacheDirLoad::default());
        assert!(warm.is_empty());
    }

    #[test]
    fn shard_files_do_not_collide_and_all_load() {
        let dir = tempdir("shards");
        let cache = populated_cache();
        let a = persist_cache(&cache, &dir, ShardSpec::new(0, 2).unwrap()).unwrap();
        let b = persist_cache(&cache, &dir, ShardSpec::new(1, 2).unwrap()).unwrap();
        assert_ne!(a, b);
        let warm = GlobalAnalysisCache::new();
        let load = load_cache_dir(&warm, &dir).unwrap();
        assert_eq!(load.files, 2);
        // Same entries twice: the duplicates import as no-ops.
        assert_eq!(load.imported, cache.len());
        assert_eq!(warm.len(), cache.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
