//! Minimal argument parsing shared by the figure binaries (no external
//! CLI crate; the flags are few and stable).

/// Common harness options.
#[derive(Clone, Debug)]
pub struct Args {
    /// Dataset scale factor in `(0, 1]` (fraction of the paper's point
    /// counts; ε is stretched to preserve selectivity).
    pub scale: f64,
    /// Best-of trials per wall-clock measurement (the paper averages 3);
    /// modeled times are deterministic and run once.
    pub trials: usize,
    /// Quick mode: fewer ε points and a smaller scale, for smoke runs.
    pub quick: bool,
    /// Also write every printed table as JSON under `bench_results/`
    /// (see [`crate::table::emit_table`]).
    pub json: bool,
    /// Render the measured run's outputs as stage trees (`sj_obs::Stage`)
    /// and export them as a Chrome trace under `bench_results/`
    /// (binaries that support it).
    pub trace: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 0.002,
            trials: 1,
            quick: false,
            json: false,
            trace: false,
        }
    }
}

impl Args {
    /// Parses `--scale F`, `--trials N`, `--quick`, `--json`, `--trace`
    /// from the process arguments; later flags win. Unknown flags abort
    /// with usage.
    pub fn parse() -> Self {
        Self::from_iter(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    #[allow(clippy::should_implement_trait)] // not a collection conversion
    pub fn from_iter<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("missing value for --scale"));
                    out.scale = v.parse().unwrap_or_else(|_| usage("bad --scale value"));
                    if !(out.scale > 0.0 && out.scale <= 1.0) {
                        usage("--scale must be in (0, 1]");
                    }
                }
                "--trials" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("missing value for --trials"));
                    out.trials = v.parse().unwrap_or_else(|_| usage("bad --trials value"));
                    if out.trials == 0 {
                        usage("--trials must be positive");
                    }
                }
                "--quick" => out.quick = true,
                "--json" => out.json = true,
                "--trace" => out.trace = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        if out.quick {
            out.scale = out.scale.min(0.0005);
        }
        out
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <figure-binary> [--scale F] [--trials N] [--quick] [--json] [--trace]\n\
         \n\
         --scale F    fraction of the paper's dataset sizes, 0 < F <= 1 (default 0.002)\n\
         --trials N   best-of trials per wall-clock measurement (default 1; paper used 3)\n\
         --quick      smoke mode: caps scale at 0.0005\n\
         --json       also write printed tables to bench_results/<figure>.json\n\
         --trace      export the run's stage trees as a Chrome trace to bench_results/"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::from_iter(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 0.002);
        assert_eq!(a.trials, 1);
        assert!(!a.quick);
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--scale", "0.01", "--trials", "3"]);
        assert_eq!(a.scale, 0.01);
        assert_eq!(a.trials, 3);
        assert!(!a.json);
    }

    #[test]
    fn json_flag_parses() {
        assert!(parse(&["--json"]).json);
        assert!(parse(&["--quick", "--json"]).json);
    }

    #[test]
    fn trace_flag_parses() {
        assert!(parse(&["--trace"]).trace);
        assert!(!parse(&["--json"]).trace);
    }

    #[test]
    fn quick_caps_scale() {
        let a = parse(&["--scale", "0.5", "--quick"]);
        assert!(a.scale <= 0.0005);
    }
}
