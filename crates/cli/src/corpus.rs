//! The one reader of a corpus directory. `msearch`, `serve`'s boot and
//! its hot reload all load a directory through [`load_corpus`], so they
//! agree on which documents it holds, under which names, and which
//! files are quarantined. The single-file readers the commands share
//! ([`load`], [`sibling_segment`], [`load_segment`]) live here too.

use crate::commands::CliError;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xfrag_core::fault::{panic_message, site};
use xfrag_core::FaultInjector;
use xfrag_doc::manifest;
use xfrag_doc::{parse_str, store, Collection, Document, SegmentIndex};

/// What a corpus directory holds: the documents that loaded, the files
/// that did not, and the generation they came from.
pub(crate) struct Corpus {
    /// The loaded documents, sorted by display name.
    pub coll: Collection,
    /// Files that failed to load, with reasons.
    pub quarantined: Vec<(String, String)>,
    /// Manifest generation number; 0 for an unversioned (legacy) corpus.
    pub number: u64,
    /// Verified parent chain of the serving manifest, nearest ancestor
    /// first; empty for a full generation or an unversioned corpus.
    pub parent_chain: Vec<u64>,
    /// Documents whose data files are referenced from an ancestor
    /// generation (delta carry) vs written by this generation itself.
    pub docs_carried: u64,
    pub docs_rewritten: u64,
    /// Display name → manifest checksum. Equal sums across a reload
    /// prove the file bytes are identical, which is what licenses cache
    /// carry-over. Empty for an unversioned corpus: nothing vouches for
    /// byte identity there, so nothing is carried.
    pub doc_sums: HashMap<String, u64>,
    /// Rollback messages from [`manifest::load_generation`]: newer
    /// generations that existed on disk but failed verification.
    pub rollbacks: Vec<String>,
}

/// Load the corpus in `dir`.
///
/// A manifest-committed corpus loads exactly the newest fully-verified
/// generation's files ([`manifest::load_generation`] handles rollback),
/// each under its display name (`a.g000002.xfrg` serves as `a.xfrg`)
/// and paired with its `.xidx` segment by manifest stem; a legacy
/// directory (no manifests) scans every `.xml`/`.xfrg` and probes each
/// `.xfrg`'s [`sibling_segment`]. Either way, files that fail to read,
/// decode, or parse — including injected `serve:load` read errors and
/// even a panicking loader — are quarantined, and an unusable segment
/// warns and falls back to an in-memory index. A directory where
/// manifests exist but *none* verifies is an error (anything loaded from
/// it would be a partial generation), and so is one with no loadable
/// document.
///
/// With `boot` set, rollbacks and quarantines are printed to stderr
/// before the empty check, as a process starting on the directory
/// reports them; a reload reports them through its own outcome instead.
pub(crate) fn load_corpus(
    dir: &str,
    fault: Option<&Arc<FaultInjector>>,
    boot: bool,
) -> Result<Corpus, CliError> {
    let dirp = Path::new(dir);
    let mut parent_chain: Vec<u64> = Vec::new();
    let mut docs_carried = 0u64;
    let mut docs_rewritten = 0u64;
    let mut doc_sums: HashMap<String, u64> = HashMap::new();
    type LoadFile = (PathBuf, String, Option<PathBuf>);
    let (files, number, rollbacks): (Vec<LoadFile>, u64, Vec<String>) =
        match manifest::load_generation(dirp).map_err(|e| CliError::Io(dir.to_string(), e))? {
            manifest::GenerationLoad::Unversioned => {
                // Legacy corpus: scan the directory. Generation-named
                // files and temp remnants are skipped — without a
                // manifest nothing vouches for them.
                let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
                    .map_err(|e| CliError::Io(dir.to_string(), e))?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.extension()
                            .and_then(|e| e.to_str())
                            .is_some_and(|e| e == "xml" || e == "xfrg")
                    })
                    .collect();
                paths.sort();
                let files = paths
                    .into_iter()
                    .filter_map(|p| {
                        let name = p.file_name()?.to_string_lossy().into_owned();
                        if manifest::split_generation_file(&name).is_some()
                            || xfrag_doc::atomic::is_temp_remnant(&name)
                        {
                            return None;
                        }
                        Some((p, name, None))
                    })
                    .collect();
                (files, 0, Vec::new())
            }
            manifest::GenerationLoad::Committed {
                manifest: m,
                rollbacks,
            } => {
                // `load_generation` already verified the chain; a walk
                // failure here would be a concurrent prune, in which
                // case lineage is cosmetic and empty is fine.
                parent_chain = manifest::parent_chain(dirp, &m).unwrap_or_default();
                // Partition the manifest: `.xidx` index segments pair
                // with their document by stem; documents drive the
                // carried/rewritten accounting and cache carry-over.
                let mut seg_paths: HashMap<String, PathBuf> = HashMap::new();
                let mut docs: Vec<(PathBuf, String)> = Vec::new();
                for e in &m.files {
                    // Display names drop the `.g<gen>` infix so a
                    // document keeps its identity across reloads.
                    let (display, file_gen) = manifest::split_generation_file(&e.name)
                        .unwrap_or_else(|| (e.name.clone(), m.generation));
                    if let Some(stem) = display.strip_suffix(".xidx") {
                        seg_paths.insert(stem.to_string(), dirp.join(&e.name));
                        continue;
                    }
                    if file_gen == m.generation {
                        docs_rewritten += 1;
                    } else {
                        docs_carried += 1;
                    }
                    doc_sums.insert(display.clone(), e.checksum);
                    docs.push((dirp.join(&e.name), display));
                }
                docs.sort_by(|a, b| a.1.cmp(&b.1));
                let files = docs
                    .into_iter()
                    .map(|(p, display)| {
                        let seg = display
                            .strip_suffix(".xfrg")
                            .and_then(|stem| seg_paths.get(stem).cloned());
                        (p, display, seg)
                    })
                    .collect();
                (files, m.generation, rollbacks)
            }
            manifest::GenerationLoad::NoneCommitted { rollbacks } => {
                return Err(CliError::Query(format!(
                    "no fully-committed generation in {dir}: {}",
                    rollbacks.join("; ")
                )));
            }
        };
    let mut coll = Collection::new();
    let mut quarantined = Vec::new();
    for (path, name, seg_path) in files {
        let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<Document, CliError> {
            if let Some(inj) = fault {
                inj.fire(site::SERVE_LOAD).map_err(|_| {
                    CliError::Io(name.clone(), std::io::Error::other("injected read error"))
                })?;
            }
            load(&path.to_string_lossy())
        }));
        match attempt {
            Ok(Ok(doc)) => {
                // A committed document pairs with its manifest segment; a
                // legacy one (generation 0) with its `.xidx` sibling, if
                // any. A bad segment never takes the document down.
                let seg = match seg_path {
                    Some(sp) => load_segment(&sp, &doc).map(Some),
                    None if number == 0 => sibling_segment(&path, &doc),
                    None => Ok(None),
                };
                let seg = seg.unwrap_or_else(|why| {
                    eprintln!(
                        "warning: {name}: index segment unusable ({why}); \
                         using the in-memory index"
                    );
                    None
                });
                match seg {
                    Some(seg) => coll.add_with_segment(&name, doc, seg),
                    None => coll.add(&name, doc),
                };
            }
            Ok(Err(e)) => quarantined.push((name, e.to_string())),
            Err(payload) => quarantined.push((
                name,
                format!("loader panicked: {}", panic_message(payload.as_ref())),
            )),
        }
    }
    if boot {
        for r in &rollbacks {
            eprintln!("warning: {r}");
        }
        for (name, why) in &quarantined {
            eprintln!("warning: quarantined {name}: {why}");
        }
    }
    if coll.is_empty() {
        return Err(CliError::Query(format!(
            "no loadable documents in {dir} ({} quarantined)",
            quarantined.len()
        )));
    }
    Ok(Corpus {
        coll,
        quarantined,
        number,
        parent_chain,
        docs_carried,
        docs_rewritten,
        doc_sums,
        rollbacks,
    })
}

/// Read one document: a `.xfrg` decodes from the binary store, anything
/// else parses as XML.
pub(crate) fn load(path: &str) -> Result<Document, CliError> {
    if path.ends_with(".xfrg") {
        let bytes = std::fs::read(path).map_err(|e| CliError::Io(path.to_string(), e))?;
        return store::decode(&bytes).map_err(CliError::Store);
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))?;
    parse_str(&text).map_err(CliError::Parse)
}

/// Probe for a persistent index segment next to a `.xfrg` file: the
/// same path with an `.xidx` extension. `Ok(None)` when there is no
/// sibling; `Err(why)` when one exists but is unusable (corrupt, or
/// built for a different document) — callers warn and fall back to an
/// in-memory index, never fail the load.
pub(crate) fn sibling_segment(path: &Path, doc: &Document) -> Result<Option<SegmentIndex>, String> {
    if path.extension().and_then(|e| e.to_str()) != Some("xfrg") {
        return Ok(None);
    }
    let seg_path = path.with_extension("xidx");
    if !seg_path.exists() {
        return Ok(None);
    }
    load_segment(&seg_path, doc).map(Some)
}

/// Read, decode, and validate one `.xidx` segment against the document
/// it claims to index.
pub(crate) fn load_segment(path: &Path, doc: &Document) -> Result<SegmentIndex, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let seg = SegmentIndex::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    if seg.doc_len() != doc.len() {
        return Err(format!(
            "{}: segment covers {} node(s) but the document has {}",
            path.display(),
            seg.doc_len(),
            doc.len()
        ));
    }
    Ok(seg)
}
