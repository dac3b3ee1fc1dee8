//! Checksummed, generation-numbered corpus manifests.
//!
//! A corpus directory is treated as a sequence of immutable
//! **generations**. Each generation is a set of data files (named
//! `<stem>.g<gen>.xfrg` so generations never overwrite each other) plus a
//! manifest `manifest-<gen>.xfm` listing every file with its byte length
//! and FNV-1a checksum. The manifest is itself checksummed and written
//! atomically ([`crate::atomic::write_atomic`]) *after* all its data
//! files, so its presence and integrity certify the whole generation:
//!
//! * data files first, each atomic — a crash leaves at worst ignorable
//!   temp remnants and orphan data files no manifest points at;
//! * manifest last — the single atomic commit point of the generation.
//!
//! On load, [`load_generation`] walks manifests newest-first and returns
//! the first **fully-committed** one: manifest intact, every listed file
//! present with matching length and checksum. A torn or mismatched
//! newer generation is *rolled back* (with a reason the caller can log)
//! rather than quarantined forever — the previous generation keeps
//! serving. A directory with no manifest at all loads in legacy mode
//! (the caller scans `.xml`/`.xfrg` itself).
//!
//! **Delta generations.** A manifest may carry a `parent <gen>` line,
//! marking it a *delta*: it still lists **every** file of its generation
//! (so verification stays self-contained), but unchanged entries keep
//! their parent generation's file names instead of being rewritten. The
//! loader additionally walks the parent chain — every ancestor manifest
//! must exist and decode — and refuses a delta whose chain is broken,
//! falling back to the newest fully-verified ancestor. Pruning retains
//! any generation still referenced by a live delta's chain.

use crate::atomic::{is_temp_remnant, write_atomic, WriteFaultHook};
use crate::store::fnv1a;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The manifest format tag; bump on incompatible changes.
const HEADER: &str = "xfrag-manifest v1";

/// FNV-1a checksum of a byte slice — the same function the `.xfrg`
/// store format uses, exposed so external tooling can verify entries.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// One data file of a generation, as recorded in its manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name within the corpus directory (no path separators).
    pub name: String,
    /// Exact byte length.
    pub len: u64,
    /// FNV-1a checksum over the whole file.
    pub checksum: u64,
}

impl ManifestEntry {
    /// Hash an existing file in `dir` into an entry.
    pub fn for_file(dir: &Path, name: &str) -> io::Result<ManifestEntry> {
        Ok(ManifestEntry::for_bytes(name, &fs::read(dir.join(name))?))
    }

    /// The entry for a file named `name` holding exactly `bytes`.
    pub fn for_bytes(name: impl Into<String>, bytes: &[u8]) -> ManifestEntry {
        ManifestEntry {
            name: name.into(),
            len: bytes.len() as u64,
            checksum: fnv1a(bytes),
        }
    }
}

/// A decoded (or to-be-written) manifest: one corpus generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Generation number; strictly increasing across commits.
    pub generation: u64,
    /// For a delta generation, the generation it diffed against. Must be
    /// strictly older than `generation`; `None` for a full generation.
    pub parent: Option<u64>,
    /// Every data file of the generation. A delta lists unchanged files
    /// under their parent generation's names.
    pub files: Vec<ManifestEntry>,
}

/// Why a manifest failed to decode or verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Not UTF-8, missing trailing newline, or malformed lines.
    Malformed(String),
    /// The manifest's own trailing checksum does not match its bytes.
    ChecksumMismatch,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Malformed(e) => write!(f, "malformed manifest: {e}"),
            ManifestError::ChecksumMismatch => {
                write!(f, "manifest checksum mismatch (torn or corrupted)")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// Strict 16-digit lowercase-hex parse. `from_str_radix` would also
/// accept uppercase and `+` prefixes, letting some single-bit flips of a
/// checksum line (e.g. `a` ↔ `A`) decode to the same value — this
/// parser makes every byte of the encoding significant.
fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    let mut v: u64 = 0;
    for b in s.bytes() {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        v = (v << 4) | d as u64;
    }
    Some(v)
}

impl Manifest {
    /// Serialize to the on-disk text format. Entry names must not
    /// contain newlines (enforced by [`write_manifest`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut s = String::new();
        writeln!(s, "{HEADER}").unwrap();
        writeln!(s, "generation {}", self.generation).unwrap();
        if let Some(p) = self.parent {
            writeln!(s, "parent {p}").unwrap();
        }
        for e in &self.files {
            writeln!(s, "file {} {:016x} {}", e.len, e.checksum, e.name).unwrap();
        }
        // The trailing checksum covers every byte before its own line, so
        // any truncation — even one byte — breaks the final line's shape
        // or its value.
        let sum = fnv1a(s.as_bytes());
        writeln!(s, "checksum {sum:016x}").unwrap();
        s.into_bytes()
    }

    /// Parse and verify the on-disk format. Rejects — never panics on —
    /// any corruption: truncation at every byte boundary, bit flips,
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, ManifestError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| ManifestError::Malformed("not UTF-8".into()))?;
        if !text.ends_with('\n') {
            return Err(ManifestError::Malformed(
                "missing trailing newline (truncated)".into(),
            ));
        }
        // Split off the final "checksum <hex>" line; the checksum covers
        // everything before it.
        let body_end = text[..text.len() - 1]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let (body, sum_line) = text.split_at(body_end);
        let sum_hex = sum_line
            .trim_end_matches('\n')
            .strip_prefix("checksum ")
            .ok_or_else(|| ManifestError::Malformed("missing checksum line".into()))?;
        let sum = parse_hex16(sum_hex)
            .ok_or_else(|| ManifestError::Malformed("bad checksum hex".into()))?;
        if fnv1a(body.as_bytes()) != sum {
            return Err(ManifestError::ChecksumMismatch);
        }

        let mut lines = body.lines();
        if lines.next() != Some(HEADER) {
            return Err(ManifestError::Malformed("bad header".into()));
        }
        let generation = lines
            .next()
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|g| g.parse::<u64>().ok())
            .ok_or_else(|| ManifestError::Malformed("bad generation line".into()))?;
        let mut lines = lines.peekable();
        let parent = match lines.peek().and_then(|l| l.strip_prefix("parent ")) {
            Some(p) => {
                let p = p
                    .parse::<u64>()
                    .map_err(|_| ManifestError::Malformed("bad parent line".into()))?;
                if p >= generation {
                    return Err(ManifestError::Malformed(format!(
                        "parent {p} not older than generation {generation}"
                    )));
                }
                lines.next();
                Some(p)
            }
            None => None,
        };
        let mut files = Vec::new();
        for line in lines {
            let rest = line
                .strip_prefix("file ")
                .ok_or_else(|| ManifestError::Malformed(format!("bad line {line:?}")))?;
            let (len, rest) = rest
                .split_once(' ')
                .ok_or_else(|| ManifestError::Malformed(format!("bad line {line:?}")))?;
            let (sum, name) = rest
                .split_once(' ')
                .ok_or_else(|| ManifestError::Malformed(format!("bad line {line:?}")))?;
            let len = len
                .parse::<u64>()
                .map_err(|_| ManifestError::Malformed(format!("bad length in {line:?}")))?;
            let sum = parse_hex16(sum)
                .ok_or_else(|| ManifestError::Malformed(format!("bad checksum in {line:?}")))?;
            if name.is_empty() {
                return Err(ManifestError::Malformed(format!("empty name in {line:?}")));
            }
            files.push(ManifestEntry {
                name: name.to_string(),
                len,
                checksum: sum,
            });
        }
        Ok(Manifest {
            generation,
            parent,
            files,
        })
    }
}

/// The manifest path for a generation: `dir/manifest-<gen>.xfm`.
pub fn manifest_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("manifest-{generation:06}.xfm"))
}

/// Parse the generation out of a `manifest-<gen>.xfm` file name.
fn manifest_generation(name: &str) -> Option<u64> {
    name.strip_prefix("manifest-")?
        .strip_suffix(".xfm")?
        .parse()
        .ok()
}

/// The per-generation data file name for a logical stem:
/// `<stem>.g<gen>.xfrg`. Generations never overwrite each other's files,
/// which is what makes rollback possible.
pub fn generation_file_name(stem: &str, generation: u64) -> String {
    format!("{stem}.g{generation:06}.xfrg")
}

/// Split a generation-suffixed data file name into its logical display
/// name and generation: `a.g000002.xfrg` → (`a.xfrg`, 2), and likewise
/// for `.xidx` index segments. Returns `None` for names without the
/// suffix.
pub fn split_generation_file(name: &str) -> Option<(String, u64)> {
    let (stem, ext) = if let Some(s) = name.strip_suffix(".xfrg") {
        (s, "xfrg")
    } else if let Some(s) = name.strip_suffix(".xidx") {
        (s, "xidx")
    } else {
        return None;
    };
    let (logical, gen) = stem.rsplit_once(".g")?;
    if gen.is_empty() || !gen.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((format!("{logical}.{ext}"), gen.parse().ok()?))
}

/// The highest generation number any file in `dir` refers to — committed
/// or not (crash remnants count, so the next writer never collides).
/// Zero for a directory with no generation-named files.
pub fn latest_generation_number(dir: &Path) -> io::Result<u64> {
    let mut max = 0;
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(g) = manifest_generation(&name) {
            max = max.max(g);
        } else if let Some((_, g)) = split_generation_file(&name) {
            max = max.max(g);
        }
    }
    Ok(max)
}

/// The highest generation number with a *manifest* present in `dir` —
/// i.e. claimed as committed (the manifest may still fail verification;
/// [`load_generation`] decides that). Zero when no manifest exists.
/// Unlike [`latest_generation_number`], data-file crash remnants do not
/// count: pollers use this to avoid reacting to half-written commits.
pub fn latest_manifest_number(dir: &Path) -> io::Result<u64> {
    let mut max = 0;
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(g) = manifest_generation(&name) {
            max = max.max(g);
        }
    }
    Ok(max)
}

/// Atomically write `m` as `dir/manifest-<gen>.xfm` — the commit point
/// of the generation. Fails (before writing anything) on entry names a
/// later decode could not round-trip.
pub fn write_manifest(
    dir: &Path,
    m: &Manifest,
    hook: Option<&dyn WriteFaultHook>,
) -> io::Result<PathBuf> {
    for e in &m.files {
        if e.name.contains(['\n', '\r']) || e.name.contains('/') || e.name.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("manifest entry name {:?} is not encodable", e.name),
            ));
        }
    }
    if m.parent.is_some_and(|p| p >= m.generation) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "parent {} not older than generation {}",
                m.parent.unwrap(),
                m.generation
            ),
        ));
    }
    let path = manifest_path(dir, m.generation);
    write_atomic(&path, &m.encode(), hook)?;
    Ok(path)
}

/// What [`load_generation`] found in a corpus directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerationLoad {
    /// No manifest at all: a legacy corpus — the caller scans
    /// `.xml`/`.xfrg` files itself, as before manifests existed.
    Unversioned,
    /// A fully-committed generation. `rollbacks` lists newer generations
    /// that were rejected (torn manifest, missing or mismatched file) on
    /// the way here, with reasons — callers should log them.
    Committed {
        /// The chosen generation's manifest (every entry verified).
        manifest: Manifest,
        /// Why newer generations were skipped; empty when the newest won.
        rollbacks: Vec<String>,
    },
    /// Manifests exist but none is fully committed. Serving anything
    /// from this directory would mean serving a partial generation.
    NoneCommitted {
        /// Why each candidate was rejected, newest first.
        rollbacks: Vec<String>,
    },
}

/// Pick the newest fully-committed generation in `dir`: for each
/// manifest, newest first, verify the manifest's own checksum and then
/// every listed file's presence, length, and checksum. The first
/// generation that passes end-to-end wins; every rejected one
/// contributes a rollback message. Never panics on any on-disk state.
pub fn load_generation(dir: &Path) -> io::Result<GenerationLoad> {
    let mut gens: Vec<(u64, String)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(g) = manifest_generation(&name) {
            gens.push((g, name));
        }
    }
    if gens.is_empty() {
        return Ok(GenerationLoad::Unversioned);
    }
    gens.sort_by_key(|g| std::cmp::Reverse(g.0));

    let mut rollbacks = Vec::new();
    for (gen, mname) in gens {
        let bytes = match fs::read(dir.join(&mname)) {
            Ok(b) => b,
            Err(e) => {
                rollbacks.push(format!("generation {gen} rejected: {mname}: {e}"));
                continue;
            }
        };
        let m = match Manifest::decode(&bytes) {
            Ok(m) => m,
            Err(e) => {
                rollbacks.push(format!("generation {gen} rejected: {mname}: {e}"));
                continue;
            }
        };
        if m.generation != gen {
            rollbacks.push(format!(
                "generation {gen} rejected: {mname}: names generation {} inside",
                m.generation
            ));
            continue;
        }
        let verdict = parent_chain(dir, &m)
            .map(|_| ())
            .and_then(|()| verify_entries(dir, &m));
        match verdict {
            Ok(()) => {
                return Ok(GenerationLoad::Committed {
                    manifest: m,
                    rollbacks,
                })
            }
            Err(why) => {
                rollbacks.push(format!("generation {gen} rejected: {why}"));
            }
        }
    }
    Ok(GenerationLoad::NoneCommitted { rollbacks })
}

/// Walk `m`'s parent chain: each ancestor manifest must exist, decode
/// (its trailing checksum verifies it end-to-end), and name its own
/// generation. Returns the ancestor generation numbers, nearest first
/// (empty for a full generation). Decode enforces `parent < generation`,
/// so the chain strictly decreases and always terminates.
pub fn parent_chain(dir: &Path, m: &Manifest) -> Result<Vec<u64>, String> {
    let mut chain = Vec::new();
    let mut cur = m.parent;
    while let Some(p) = cur {
        let mname = format!("manifest-{p:06}.xfm");
        let bytes = fs::read(manifest_path(dir, p))
            .map_err(|e| format!("parent chain broken: {mname}: {e}"))?;
        let pm =
            Manifest::decode(&bytes).map_err(|e| format!("parent chain broken: {mname}: {e}"))?;
        if pm.generation != p {
            return Err(format!(
                "parent chain broken: {mname}: names generation {} inside",
                pm.generation
            ));
        }
        chain.push(p);
        cur = pm.parent;
    }
    Ok(chain)
}

/// Check every entry of `m` against the directory contents.
fn verify_entries(dir: &Path, m: &Manifest) -> Result<(), String> {
    for e in &m.files {
        let bytes = match fs::read(dir.join(&e.name)) {
            Ok(b) => b,
            Err(err) => return Err(format!("{}: {err}", e.name)),
        };
        if bytes.len() as u64 != e.len {
            return Err(format!(
                "{}: length {} != manifest {}",
                e.name,
                bytes.len(),
                e.len
            ));
        }
        if fnv1a(&bytes) != e.checksum {
            return Err(format!("{}: checksum mismatch", e.name));
        }
    }
    Ok(())
}

/// Delete files belonging to generations older than `keep_from`
/// (manifests and generation-suffixed data files), plus any atomic-write
/// temp remnants. Returns the deleted names, sorted. Never touches
/// un-suffixed legacy files.
///
/// Two retention guards make this safe around deltas:
/// * `keep_from` is clamped to the newest *verified* generation, so a
///   caller passing a too-large cutoff can never delete the only
///   generation that serves (the satellite-1 guard);
/// * every manifest at or above the (clamped) cutoff keeps its whole
///   parent chain alive — the chain's manifests and every file any kept
///   manifest references — so a live delta's ancestors stay fully
///   verifiable for rollback.
pub fn prune_generations(dir: &Path, keep_from: u64) -> io::Result<Vec<String>> {
    // Never delete the newest verified generation, even when keep_from
    // exceeds it.
    let keep_from = match load_generation(dir)? {
        GenerationLoad::Committed { manifest, .. } => keep_from.min(manifest.generation),
        _ => keep_from,
    };

    // Live set: manifests at or above the cutoff, their parent chains,
    // and every file those manifests reference. An undecodable manifest
    // contributes nothing (its files are unreferenced), but is itself
    // kept if at or above the cutoff — it may be a commit in flight.
    let mut live_manifests: HashSet<u64> = HashSet::new();
    let mut live_files: HashSet<String> = HashSet::new();
    let mut pending: Vec<u64> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(g) = manifest_generation(&name) {
            if g >= keep_from {
                pending.push(g);
            }
        }
    }
    while let Some(g) = pending.pop() {
        if !live_manifests.insert(g) {
            continue;
        }
        let Ok(bytes) = fs::read(manifest_path(dir, g)) else {
            continue;
        };
        let Ok(m) = Manifest::decode(&bytes) else {
            continue;
        };
        for e in &m.files {
            live_files.insert(e.name.clone());
        }
        if let Some(p) = m.parent {
            pending.push(p);
        }
    }

    let mut deleted = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let stale = match manifest_generation(&name) {
            Some(g) => g < keep_from && !live_manifests.contains(&g),
            None => match split_generation_file(&name) {
                Some((_, g)) => g < keep_from && !live_files.contains(&name),
                None => is_temp_remnant(&name),
            },
        };
        if stale {
            fs::remove_file(dir.join(&name))?;
            deleted.push(name);
        }
    }
    deleted.sort();
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xfrag-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn commit(dir: &Path, gen: u64, files: &[(&str, &[u8])]) -> Manifest {
        let mut entries = Vec::new();
        for (name, bytes) in files {
            write_atomic(&dir.join(name), bytes, None).unwrap();
            entries.push(ManifestEntry::for_file(dir, name).unwrap());
        }
        let m = Manifest {
            generation: gen,
            parent: None,
            files: entries,
        };
        write_manifest(dir, &m, None).unwrap();
        m
    }

    /// Commit a delta generation: write the given new files, carry the
    /// given entries verbatim, and record `parent`.
    fn commit_delta(
        dir: &Path,
        gen: u64,
        parent: u64,
        new_files: &[(&str, &[u8])],
        carried: &[ManifestEntry],
    ) -> Manifest {
        let mut entries = carried.to_vec();
        for (name, bytes) in new_files {
            write_atomic(&dir.join(name), bytes, None).unwrap();
            entries.push(ManifestEntry::for_file(dir, name).unwrap());
        }
        let m = Manifest {
            generation: gen,
            parent: Some(parent),
            files: entries,
        };
        write_manifest(dir, &m, None).unwrap();
        m
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = Manifest {
            generation: 7,
            parent: None,
            files: vec![
                ManifestEntry {
                    name: "a.g000007.xfrg".into(),
                    len: 42,
                    checksum: 0xdead_beef,
                },
                ManifestEntry {
                    name: "name with spaces.xfrg".into(),
                    len: 0,
                    checksum: 0,
                },
            ],
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        // A delta round-trips its parent line too.
        let delta = Manifest {
            parent: Some(6),
            ..m.clone()
        };
        assert_eq!(Manifest::decode(&delta.encode()).unwrap(), delta);
    }

    #[test]
    fn parent_must_be_older_than_generation() {
        for parent in [7u64, 8] {
            let m = Manifest {
                generation: 7,
                parent: Some(parent),
                files: vec![],
            };
            assert!(matches!(
                Manifest::decode(&m.encode()),
                Err(ManifestError::Malformed(_))
            ));
            let d = tmpdir(&format!("badparent-{parent}"));
            assert_eq!(
                write_manifest(&d, &m, None).unwrap_err().kind(),
                io::ErrorKind::InvalidInput
            );
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn every_truncation_of_a_manifest_is_rejected() {
        for parent in [None, Some(2)] {
            let m = Manifest {
                generation: 3,
                parent,
                files: vec![ManifestEntry {
                    name: "a.xfrg".into(),
                    len: 9,
                    checksum: 123,
                }],
            };
            let bytes = m.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Manifest::decode(&bytes[..cut]).is_err(),
                    "parent {parent:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn every_single_bitflip_of_a_manifest_is_rejected() {
        for parent in [None, Some(0)] {
            let m = Manifest {
                generation: 1,
                parent,
                files: vec![ManifestEntry {
                    name: "a.xfrg".into(),
                    len: 1,
                    checksum: 2,
                }],
            };
            let bytes = m.encode();
            for pos in 0..bytes.len() {
                for bit in 0..8 {
                    let mut c = bytes.clone();
                    c[pos] ^= 1 << bit;
                    if c == bytes {
                        continue;
                    }
                    assert!(
                        Manifest::decode(&c).is_err(),
                        "parent {parent:?} flip bit {bit} at {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn generation_file_names_roundtrip() {
        assert_eq!(generation_file_name("a", 2), "a.g000002.xfrg");
        assert_eq!(
            split_generation_file("a.g000002.xfrg"),
            Some(("a.xfrg".into(), 2))
        );
        assert_eq!(split_generation_file("plain.xfrg"), None);
        assert_eq!(split_generation_file("a.gx.xfrg"), None);
        assert_eq!(split_generation_file("a.g2.xml"), None);
        // Index segments follow the same convention.
        assert_eq!(
            split_generation_file("a.g000002.xidx"),
            Some(("a.xidx".into(), 2))
        );
        assert_eq!(split_generation_file("plain.xidx"), None);
    }

    #[test]
    fn load_picks_newest_committed_generation() {
        let d = tmpdir("pick");
        commit(&d, 1, &[("a.g000001.xfrg", b"one")]);
        commit(
            &d,
            2,
            &[("a.g000002.xfrg", b"two"), ("b.g000002.xfrg", b"B")],
        );
        match load_generation(&d).unwrap() {
            GenerationLoad::Committed {
                manifest,
                rollbacks,
            } => {
                assert_eq!(manifest.generation, 2);
                assert_eq!(manifest.files.len(), 2);
                assert!(rollbacks.is_empty());
            }
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_newer_generation_rolls_back_to_committed_one() {
        let d = tmpdir("rollback");
        commit(&d, 1, &[("a.g000001.xfrg", b"good old data")]);
        // Generation 2: data file torn (truncated), manifest claims the
        // full length.
        fs::write(d.join("a.g000002.xfrg"), b"new").unwrap();
        let m2 = Manifest {
            generation: 2,
            parent: None,
            files: vec![ManifestEntry {
                name: "a.g000002.xfrg".into(),
                len: 100,
                checksum: 1,
            }],
        };
        write_manifest(&d, &m2, None).unwrap();
        match load_generation(&d).unwrap() {
            GenerationLoad::Committed {
                manifest,
                rollbacks,
            } => {
                assert_eq!(manifest.generation, 1);
                assert_eq!(rollbacks.len(), 1);
                assert!(
                    rollbacks[0].contains("generation 2 rejected"),
                    "{rollbacks:?}"
                );
            }
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn no_manifest_means_unversioned_and_all_torn_means_none() {
        let d = tmpdir("modes");
        assert_eq!(load_generation(&d).unwrap(), GenerationLoad::Unversioned);
        fs::write(d.join("manifest-000001.xfm"), b"garbage").unwrap();
        match load_generation(&d).unwrap() {
            GenerationLoad::NoneCommitted { rollbacks } => {
                assert_eq!(rollbacks.len(), 1);
            }
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn prune_keeps_recent_generations_and_legacy_files() {
        let d = tmpdir("prune");
        commit(&d, 1, &[("a.g000001.xfrg", b"1")]);
        commit(&d, 2, &[("a.g000002.xfrg", b"2")]);
        commit(&d, 3, &[("a.g000003.xfrg", b"3")]);
        fs::write(d.join("legacy.xfrg"), b"keep me").unwrap();
        fs::write(d.join(".a.xfrg.tmp-1-1"), b"remnant").unwrap();
        let deleted = prune_generations(&d, 2).unwrap();
        assert_eq!(
            deleted,
            vec![".a.xfrg.tmp-1-1", "a.g000001.xfrg", "manifest-000001.xfm"]
        );
        assert!(d.join("legacy.xfrg").exists());
        assert!(d.join("a.g000002.xfrg").exists());
        assert!(d.join("manifest-000003.xfm").exists());
        assert_eq!(latest_generation_number(&d).unwrap(), 3);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn delta_generation_loads_and_reports_its_chain() {
        let d = tmpdir("delta-load");
        let m1 = commit(
            &d,
            1,
            &[("a.g000001.xfrg", b"alpha"), ("b.g000001.xfrg", b"beta")],
        );
        // Gen 2 rewrites b, carries a from gen 1.
        let m2 = commit_delta(&d, 2, 1, &[("b.g000002.xfrg", b"beta two")], &m1.files[..1]);
        match load_generation(&d).unwrap() {
            GenerationLoad::Committed {
                manifest,
                rollbacks,
            } => {
                assert_eq!(manifest, m2);
                assert!(rollbacks.is_empty(), "{rollbacks:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parent_chain(&d, &m2).unwrap(), vec![1]);
        // A delta on the delta chains through both ancestors.
        let m3 = commit_delta(&d, 3, 2, &[("c.g000003.xfrg", b"gamma")], &m2.files);
        assert_eq!(parent_chain(&d, &m3).unwrap(), vec![2, 1]);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn delta_with_missing_or_corrupt_parent_manifest_is_rejected() {
        for corrupt in [false, true] {
            let d = tmpdir(&format!("delta-chain-{corrupt}"));
            let m1 = commit(&d, 1, &[("a.g000001.xfrg", b"alpha")]);
            commit_delta(&d, 2, 1, &[("b.g000002.xfrg", b"beta")], &m1.files);
            if corrupt {
                fs::write(manifest_path(&d, 1), b"garbage\n").unwrap();
            } else {
                fs::remove_file(manifest_path(&d, 1)).unwrap();
            }
            // The delta itself verifies (all its files are intact), but
            // its parent chain is broken — it must not be served.
            match load_generation(&d).unwrap() {
                GenerationLoad::NoneCommitted { rollbacks } => {
                    assert!(
                        rollbacks.iter().any(|r| r.contains("generation 2 rejected")
                            && r.contains("parent chain broken")),
                        "{rollbacks:?}"
                    );
                }
                other => panic!("corrupt={corrupt}: {other:?}"),
            }
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn delta_falls_back_to_newest_verified_ancestor() {
        let d = tmpdir("delta-fallback");
        let m1 = commit(&d, 1, &[("a.g000001.xfrg", b"alpha")]);
        commit_delta(&d, 2, 1, &[("b.g000002.xfrg", b"beta")], &m1.files);
        // Tear the delta's own new file: gen 2 fails entry verification,
        // the loader falls back to fully-verified gen 1.
        fs::write(d.join("b.g000002.xfrg"), b"b").unwrap();
        match load_generation(&d).unwrap() {
            GenerationLoad::Committed {
                manifest,
                rollbacks,
            } => {
                assert_eq!(manifest, m1);
                assert!(
                    rollbacks
                        .iter()
                        .any(|r| r.contains("generation 2 rejected")),
                    "{rollbacks:?}"
                );
            }
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn prune_never_deletes_the_newest_verified_generation() {
        let d = tmpdir("prune-guard");
        commit(&d, 1, &[("a.g000001.xfrg", b"1")]);
        commit(&d, 2, &[("a.g000002.xfrg", b"2")]);
        commit(&d, 3, &[("a.g000003.xfrg", b"3")]);
        // keep_from far beyond the newest generation: the guard clamps it.
        let deleted = prune_generations(&d, 99).unwrap();
        assert_eq!(
            deleted,
            vec![
                "a.g000001.xfrg",
                "a.g000002.xfrg",
                "manifest-000001.xfm",
                "manifest-000002.xfm"
            ]
        );
        assert!(d.join("a.g000003.xfrg").exists());
        assert!(d.join("manifest-000003.xfm").exists());
        match load_generation(&d).unwrap() {
            GenerationLoad::Committed { manifest, .. } => assert_eq!(manifest.generation, 3),
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn prune_keeps_generations_referenced_by_a_live_delta() {
        let d = tmpdir("prune-chain");
        commit(&d, 1, &[("a.g000001.xfrg", b"old")]);
        let m2 = commit(&d, 2, &[("a.g000002.xfrg", b"two")]);
        commit_delta(&d, 3, 2, &[("b.g000003.xfrg", b"new")], &m2.files);
        let deleted = prune_generations(&d, 3).unwrap();
        // Gen 1 is unreferenced and goes; gen 2 is the delta's parent and
        // must survive in full — manifest and data — so rollback to it
        // stays possible.
        assert_eq!(deleted, vec!["a.g000001.xfrg", "manifest-000001.xfm"]);
        assert!(d.join("manifest-000002.xfm").exists());
        assert!(d.join("a.g000002.xfrg").exists());
        match load_generation(&d).unwrap() {
            GenerationLoad::Committed { manifest, .. } => assert_eq!(manifest.generation, 3),
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&d).unwrap();
    }
}
