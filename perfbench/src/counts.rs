//! The count self-check: counts that must repeat exactly for one seed
//! (pair counts, grid cells, batches, ghost share, session reuse) are
//! compared across the ops of a run and against the last run of the same
//! workload and seed. Drift is reported, not fatal: the answer gate
//! already fails a run whose pairs differ, and some counts follow choices
//! the program makes from measured time (the shard chooser).

use std::collections::BTreeMap;
use std::path::Path;

#[derive(Default)]
pub struct CountCheck {
    seen: BTreeMap<String, f64>,
    pub drift: Vec<String>,
}

impl CountCheck {
    /// Records `value` under `key`, noting drift from an earlier op.
    pub fn observe(&mut self, key: &str, value: f64) {
        match self.seen.get(key) {
            Some(&prev) if prev != value => {
                self.drift
                    .push(format!("{key}: {prev} earlier in this run, {value} now"));
            }
            Some(_) => {}
            None => {
                self.seen.insert(key.to_string(), value);
            }
        }
    }

    /// Compares this run's counts with the ones stored at `path` by an
    /// earlier run, then stores the union (this run's values win).
    pub fn compare_and_store(&mut self, path: &Path) -> Result<(), String> {
        // One `key value` line per count; `f64` prints and parses back
        // exactly, so equality is exact.
        let mut stored: BTreeMap<String, f64> = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(path) {
            for line in text.lines() {
                if let Some((k, v)) = line.split_once(' ') {
                    if let Ok(v) = v.parse() {
                        stored.insert(k.to_string(), v);
                    }
                }
            }
        }
        for (k, &v) in &self.seen {
            match stored.insert(k.clone(), v) {
                Some(prev) if prev != v => {
                    self.drift
                        .push(format!("{k}: {prev} in an earlier run, {v} now"));
                }
                _ => {}
            }
        }
        let text: String = stored.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_within_and_across_runs() {
        let dir = std::env::temp_dir().join(format!("perfbench-counts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("counts.txt");
        let _ = std::fs::remove_file(&path);

        let mut first = CountCheck::default();
        first.observe("pairs", 10.0);
        first.observe("pairs", 10.0);
        assert!(first.drift.is_empty());
        first.observe("pairs", 11.0);
        assert_eq!(first.drift.len(), 1);
        first.compare_and_store(&path).unwrap();

        let mut second = CountCheck::default();
        second.observe("pairs", 12.0);
        second.observe("cells", 3.0);
        second.compare_and_store(&path).unwrap();
        assert_eq!(second.drift.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
