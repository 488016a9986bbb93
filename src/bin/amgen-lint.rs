//! `amgen-lint`: command-line front end of the static analyzer.
//!
//! Lints generator programs (`.amg` sources) without running them. All
//! files of one invocation are linted as a single set — entities defined
//! in any file are callable from every other, so split libraries like
//! `contact_row.amg` + `diffpair.amg` resolve.
//!
//! ```text
//! amgen-lint examples/*.amg            lint a file set
//! amgen-lint --examples                lint the embedded paper programs
//! amgen-lint --stdlib main.amg         preload the embedded library first
//! amgen-lint --deny-warnings ...       CI gate: warnings fail too
//! amgen-lint --certify ...             print static cost certificates
//! amgen-lint --certify --json ...      same, as one JSON document
//! amgen-lint --certify-fuel 5000 ...   certify against a fuel limit
//! amgen-lint --time ...                report lint wall time
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::process::ExitCode;
use std::time::Instant;

use amgen::lint::{
    certificates_json, render_all, render_certificates, CertifyOptions, CostReport, Diagnostic,
    Linter,
};
use amgen::tech::Tech;

struct Opts {
    deny_warnings: bool,
    examples: bool,
    stdlib: bool,
    time: bool,
    certify: bool,
    json: bool,
    certify_fuel: Option<u64>,
    trace: Option<std::path::PathBuf>,
    files: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: amgen-lint [--deny-warnings] [--examples] [--stdlib] [--certify] [--json]\n\
         \x20                 [--certify-fuel N] [--time] [file.amg ...]\n\
         \n\
         Lints generator programs against the built-in technology.\n\
         All files given in one invocation are linted as one set.\n\
         --examples adds the embedded paper programs (Figs. 2, 7, ...).\n\
         --stdlib preloads the embedded module library for the file set.\n\
         --deny-warnings exits non-zero on warnings as well as errors.\n\
         --certify prints per-entity static cost certificates (fuel,\n\
         \x20 shapes, compaction steps, recursion depth, variant runs).\n\
         --json emits the certificates as one JSON document instead.\n\
         --certify-fuel N certifies against a fuel limit: loops certain\n\
         \x20 to exhaust it are errors (E502), loops that may are warnings\n\
         \x20 (W504).\n\
         --trace out.json writes a Chrome-trace of the run (per-source spans)."
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, ExitCode> {
    let mut opts = Opts {
        deny_warnings: false,
        examples: false,
        stdlib: false,
        time: false,
        certify: false,
        json: false,
        certify_fuel: None,
        trace: amgen::trace::trace_path_from_args(),
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny-warnings" => opts.deny_warnings = true,
            "--examples" => opts.examples = true,
            "--stdlib" => opts.stdlib = true,
            "--time" => opts.time = true,
            "--certify" => opts.certify = true,
            "--json" => opts.json = true,
            "--certify-fuel" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => opts.certify_fuel = Some(n),
                _ => {
                    eprintln!("amgen-lint: --certify-fuel needs a number");
                    return Err(usage());
                }
            },
            a if a.starts_with("--certify-fuel=") => {
                match a["--certify-fuel=".len()..].parse::<u64>() {
                    Ok(n) => opts.certify_fuel = Some(n),
                    Err(_) => {
                        eprintln!("amgen-lint: --certify-fuel needs a number");
                        return Err(usage());
                    }
                }
            }
            // Value already picked up by `trace_path_from_args`.
            "--trace" => {
                args.next();
            }
            a if a.starts_with("--trace=") => {}
            "-h" | "--help" => return Err(usage()),
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            other => {
                eprintln!("amgen-lint: unknown flag `{other}`");
                return Err(usage());
            }
        }
    }
    if opts.json && !opts.certify {
        eprintln!("amgen-lint: --json only applies with --certify");
        return Err(usage());
    }
    if opts.files.is_empty() && !opts.examples {
        return Err(usage());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };

    let rules = Tech::bicmos_1u().compile_arc();
    let sink = amgen::trace::TraceSink::new();
    sink.set_enabled(opts.trace.is_some());
    let mut sources: Vec<(String, String)> = Vec::new();
    for f in &opts.files {
        match std::fs::read_to_string(f) {
            Ok(src) => sources.push((f.clone(), src)),
            Err(e) => {
                eprintln!("amgen-lint: cannot read `{f}`: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let certify_opts = CertifyOptions {
        fuel: opts.certify_fuel,
        ..CertifyOptions::default()
    };
    let max_variants = amgen::dsl::costmodel::DEFAULT_MAX_VARIANTS;

    let t0 = Instant::now();
    let mut findings: Vec<(String, String, Vec<Diagnostic>)> = Vec::new();
    let mut cert_names: Vec<String> = Vec::new();
    let mut cert_report = CostReport::default();

    // The files of one invocation form one set.
    if !sources.is_empty() {
        let mut linter = Linter::with_rules(rules.clone()).with_certify(certify_opts.clone());
        if opts.stdlib {
            for (_, lib) in amgen::dsl::stdlib::ALL {
                if let Err(e) = linter.load(lib) {
                    eprintln!("amgen-lint: embedded library failed to load: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let set: Vec<(&str, &str)> = sources
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let (diags_per_source, report) = {
            let _span = sink.span("lint", || format!("lint_set:{} file(s)", set.len()));
            linter.certify_set(&set)
        };
        for ((name, src), diags) in sources.iter().zip(diags_per_source) {
            findings.push((name.clone(), src.clone(), diags));
        }
        cert_names.extend(sources.iter().map(|(n, _)| n.clone()));
        cert_report.entities.extend(report.entities);
        cert_report.tops.extend(report.tops);
    }

    // The embedded paper programs are libraries over the Fig. 2 contact
    // row; each is linted on its own with that library preloaded.
    if opts.examples {
        use amgen::dsl::stdlib;
        let mut linter = Linter::with_rules(rules).with_certify(certify_opts);
        if let Err(e) = linter.load(stdlib::FIG2_CONTACT_ROW) {
            eprintln!("amgen-lint: embedded library failed to load: {e}");
            return ExitCode::from(2);
        }
        for (name, src) in stdlib::ALL {
            let name = format!("<stdlib:{name}>");
            let (diags, report) = {
                let mut span = sink.span("lint", || format!("lint:{name}"));
                let (diags, report) = linter.certify_source(src);
                span.arg("diagnostics", diags.len());
                (diags, report)
            };
            findings.push((name.clone(), src.to_string(), diags));
            cert_names.push(name);
            // Repeated library entities certify identically every time,
            // so last-wins merging is lossless.
            cert_report.entities.extend(report.entities);
            cert_report.tops.extend(report.tops);
        }
    }

    let elapsed = t0.elapsed();
    if let Some(path) = &opts.trace {
        if let Err(e) = sink.drain().write_chrome_file(path) {
            eprintln!("amgen-lint: cannot write trace `{}`: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (name, src, diags) in &findings {
        errors += diags.iter().filter(|d| d.is_error()).count();
        warnings += diags.iter().filter(|d| !d.is_error()).count();
        if !diags.is_empty() {
            print!("{}", render_all(name, src, diags));
        }
    }

    if opts.certify {
        let names: Vec<&str> = cert_names.iter().map(String::as_str).collect();
        if opts.json {
            println!("{}", certificates_json(&names, &cert_report, max_variants));
        } else {
            print!(
                "{}",
                render_certificates(&names, &cert_report, max_variants)
            );
        }
    }

    let checked = findings.len();
    if opts.time {
        eprintln!("amgen-lint: {checked} source(s) in {elapsed:.2?}");
    }
    if errors > 0 || (opts.deny_warnings && warnings > 0) {
        eprintln!("amgen-lint: {errors} error(s), {warnings} warning(s)");
        ExitCode::from(1)
    } else {
        if warnings > 0 {
            eprintln!("amgen-lint: {warnings} warning(s)");
        }
        ExitCode::SUCCESS
    }
}
