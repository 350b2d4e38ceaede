//! Output digests and the failure ledger.
//!
//! Every workload reduces what the program returned to a 64-bit FNV-1a
//! digest and compares it with the digest recorded in `digests.json` for
//! the same input variant. A mismatch is a failed operation: it counts
//! toward `failed` exactly like a job error, a reject or a timeout.

use sharing_json::Json;
use std::collections::BTreeMap;

/// The recorded digests, compiled into the binary so a run cannot pick
/// up a stray file from the working directory.
pub const RECORDED: &str = include_str!("../digests.json");

/// FNV-1a of `bytes`, as 16 hex digits.
#[must_use]
pub fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", sharing_dc::fnv64(bytes))
}

/// Recorded digests per workload, indexed by input variant.
#[derive(Clone, Debug, Default)]
pub struct Digests {
    by_workload: BTreeMap<String, Vec<String>>,
}

impl Digests {
    /// Parses a digests document: `{"<workload>": ["<hex>", ...], ...}`.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not such a document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.0)?;
        let obj = v.as_obj().ok_or("digests must be a JSON object")?;
        let mut by_workload = BTreeMap::new();
        for (name, list) in obj {
            let list = list
                .as_arr()
                .ok_or_else(|| format!("digests for `{name}` must be an array"))?;
            let hexes = list
                .iter()
                .map(|h| h.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("digests for `{name}` must be strings"))?;
            by_workload.insert(name.clone(), hexes);
        }
        Ok(Digests { by_workload })
    }

    /// The digests compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics if `digests.json` is malformed (a build-time defect).
    #[must_use]
    pub fn recorded() -> Self {
        Self::parse(RECORDED).expect("digests.json is well-formed")
    }

    /// The recorded digest of `workload` on input `variant`.
    #[must_use]
    pub fn get(&self, workload: &str, variant: u64) -> Option<&str> {
        self.by_workload
            .get(workload)?
            .get(usize::try_from(variant).ok()?)
            .map(String::as_str)
    }

    /// Records `digest` for `workload` on `variant` (the `--bless` path).
    pub fn set(&mut self, workload: &str, variant: u64, digest: String) {
        let list = self.by_workload.entry(workload.to_string()).or_default();
        let i = usize::try_from(variant).expect("variant fits usize");
        if list.len() <= i {
            list.resize(i + 1, String::new());
        }
        list[i] = digest;
    }

    /// Serializes in the format [`Digests::parse`] reads.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let last = self.by_workload.len();
        for (k, (name, list)) in self.by_workload.iter().enumerate() {
            let items: Vec<String> = list.iter().map(|h| format!("\"{h}\"")).collect();
            out.push_str(&format!("  \"{name}\": [{}]", items.join(", ")));
            out.push_str(if k + 1 < last { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// Operations attempted and failed in one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, timed out, or returned an
    /// output that differs from its reference.
    pub failed: u64,
    /// One line per failure, for the report.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts `ops` operations that succeeded or failed together.
    pub fn record(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    /// Counts `ops` operations whose output digest is `got`, against the
    /// recorded `want`. A missing record is a failure too.
    pub fn digest(&mut self, ops: u64, got: &str, want: Option<&str>) -> bool {
        let ok = want == Some(got);
        self.record(ops, ok, || {
            format!(
                "digest {got} differs from recorded {}",
                want.unwrap_or("<none>")
            )
        });
        ok
    }

    /// Failed ÷ attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
