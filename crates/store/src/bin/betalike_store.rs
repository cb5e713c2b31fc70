//! `betalike-store` — offline tooling for a `betalike-serve` data
//! directory.
//!
//! ```text
//! betalike-store <command> --data-dir DIR [flags]
//!
//! commands:
//!   inspect  [--handle H]        one summary line per stored artifact
//!                                (or a detailed view of one handle)
//!   verify                       fully re-read and re-checksum every
//!                                artifact; non-zero exit on any damage
//!                                (the CI restart-smoke step runs this)
//!   export-json --handle H       decode one artifact to JSON on stdout
//!            [--out FILE]        (params, schema, audit, form, codes)
//!   gc --keep H [--keep H]...    delete every artifact except the kept
//!                                handles (each unlink is fsynced)
//! ```
//!
//! Exit codes: 0 success, 1 failure (including any `verify` damage),
//! 2 usage error.

use betalike_microdata::json::Json;
use betalike_microdata::SchemaSpec;
use betalike_store::{ArtifactStore, FormSnapshot, PublicationSnapshot};
use std::collections::BTreeMap;

fn main() {
    match run() {
        Ok(()) => {}
        Err(Failure { message, code }) => {
            eprintln!("betalike-store: {message}");
            std::process::exit(code);
        }
    }
}

struct Failure {
    message: String,
    code: i32,
}

impl Failure {
    fn usage(message: impl Into<String>) -> Self {
        Failure {
            message: message.into(),
            code: 2,
        }
    }

    fn error(message: impl std::fmt::Display) -> Self {
        Failure {
            message: message.to_string(),
            code: 1,
        }
    }
}

struct Args {
    command: String,
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    fn parse() -> Result<Args, Failure> {
        let mut command = None;
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| Failure::usage(format!("--{key} expects a value")))?;
                flags.entry(key.into()).or_default().push(value);
            } else if command.is_none() {
                command = Some(arg);
            } else {
                return Err(Failure::usage(format!(
                    "unexpected positional argument `{arg}`"
                )));
            }
        }
        Ok(Args {
            command: command.ok_or_else(|| {
                Failure::usage("no command (inspect | verify | export-json | gc)")
            })?,
            flags,
        })
    }

    fn one(&self, key: &str) -> Option<&str> {
        self.flags
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, Failure> {
        self.one(key)
            .ok_or_else(|| Failure::usage(format!("--{key} is required")))
    }
}

fn run() -> Result<(), Failure> {
    let args = Args::parse()?;
    let data_dir = args.required("data-dir")?;
    let (store, quarantined) = ArtifactStore::open(data_dir).map_err(Failure::error)?;
    for handle in &quarantined {
        eprintln!("betalike-store: quarantined corrupt artifact `{handle}` on open");
    }
    match args.command.as_str() {
        "inspect" => inspect(&store, args.one("handle")),
        "verify" => verify(&store),
        "export-json" => export_json(&store, args.required("handle")?, args.one("out")),
        "gc" => {
            let keep = args.flags.get("keep").cloned().unwrap_or_default();
            gc(&store, &keep)
        }
        other => Err(Failure::usage(format!("unknown command `{other}`"))),
    }
}

fn form_summary(snap: &PublicationSnapshot) -> String {
    match &snap.form {
        FormSnapshot::Generalized { ecs } => format!("ecs={}", ecs.len()),
        FormSnapshot::Perturbed { support, .. } => format!("m={}", support.len()),
        FormSnapshot::Anatomy => "histogram".into(),
    }
}

fn inspect(store: &ArtifactStore, handle: Option<&str>) -> Result<(), Failure> {
    let handles = match handle {
        Some(h) => vec![h.to_string()],
        None => store.handles(),
    };
    if handles.is_empty() {
        println!("(no stored artifacts)");
        return Ok(());
    }
    for h in handles {
        let entry = store
            .entry(&h)
            .ok_or_else(|| Failure::error(format!("unknown handle `{h}`")))?;
        let snap = store
            .load(&h)
            .map_err(|e| Failure::error(format!("{h}: {e}")))?
            .ok_or_else(|| Failure::error(format!("{h}: entry vanished during inspect")))?;
        println!(
            "{h} kind={} algo={} dataset={} rows={} {} audit={} bytes={} checksum={:016x}",
            snap.form.kind(),
            snap.params.algo,
            snap.params.dataset_key,
            snap.table.num_rows(),
            form_summary(&snap),
            if snap.audit.is_some() { "yes" } else { "no" },
            entry.bytes,
            entry.checksum,
        );
    }
    Ok(())
}

fn verify(store: &ArtifactStore) -> Result<(), Failure> {
    let report = store.verify();
    if report.is_empty() {
        println!("(no stored artifacts)");
        return Ok(());
    }
    let mut damaged = 0usize;
    for (handle, result) in &report {
        match result {
            Ok(entry) => println!("{handle} OK ({} bytes)", entry.bytes),
            Err(e) => {
                damaged += 1;
                println!("{handle} DAMAGED: {e}");
            }
        }
    }
    if damaged > 0 {
        return Err(Failure::error(format!(
            "{damaged} of {} artifacts damaged",
            report.len()
        )));
    }
    println!("all {} artifacts verified", report.len());
    Ok(())
}

fn export_json(store: &ArtifactStore, handle: &str, out: Option<&str>) -> Result<(), Failure> {
    let snap = store
        .load(handle)
        .map_err(Failure::error)?
        .ok_or_else(|| Failure::error(format!("unknown handle `{handle}`")))?;
    let doc = snapshot_to_json(&snap).map_err(Failure::error)?;
    let text = doc.pretty() + "\n";
    match out {
        Some(path) => {
            use betalike_faults::{RealVfs, Vfs};
            RealVfs
                .write(
                    "export-json.write",
                    std::path::Path::new(path),
                    text.as_bytes(),
                )
                .map_err(|e| Failure::error(format!("write {path}: {e}")))?
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn snapshot_to_json(snap: &PublicationSnapshot) -> Result<Json, String> {
    let p = &snap.params;
    let nums_u32 = |xs: &[u32]| Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect());
    let nums_f64 = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let params = Json::Obj(vec![
        ("handle".into(), Json::Str(p.handle.clone())),
        ("canonical".into(), Json::Str(p.canonical.clone())),
        ("dataset".into(), Json::Str(p.dataset_key.clone())),
        ("algo".into(), Json::Str(p.algo.clone())),
        ("qi_prefix".into(), Json::Num(p.qi_prefix as f64)),
        ("beta".into(), Json::Num(p.beta)),
        ("t".into(), Json::Num(p.t)),
        ("seed".into(), Json::Num(p.seed as f64)),
        ("qi".into(), nums_u32(&p.qi)),
        ("sa".into(), Json::Num(p.sa as f64)),
    ]);
    let schema_json = SchemaSpec::from_schema(snap.table.schema()).to_json();
    let schema = Json::parse(&schema_json).map_err(|e| e.to_string())?;
    let form = match &snap.form {
        FormSnapshot::Generalized { ecs } => Json::Obj(vec![
            ("kind".into(), Json::Str("generalized".into())),
            (
                "ecs".into(),
                Json::Arr(ecs.iter().map(|ec| nums_u32(ec)).collect()),
            ),
        ]),
        FormSnapshot::Perturbed {
            sa_column,
            support,
            priors,
            caps,
            gammas,
            alphas,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("perturbed".into())),
            ("sa_column".into(), nums_u32(sa_column)),
            ("support".into(), nums_u32(support)),
            ("priors".into(), nums_f64(priors)),
            ("caps".into(), nums_f64(caps)),
            ("gammas".into(), nums_f64(gammas)),
            ("alphas".into(), nums_f64(alphas)),
        ]),
        FormSnapshot::Anatomy => Json::Obj(vec![("kind".into(), Json::Str("anatomy".into()))]),
    };
    let audit = match &snap.audit {
        None => Json::Null,
        Some(a) => Json::Obj(vec![
            ("max_beta".into(), Json::Num(a.max_beta)),
            ("avg_beta".into(), Json::Num(a.avg_beta)),
            ("max_closeness".into(), Json::Num(a.max_closeness)),
            ("avg_closeness".into(), Json::Num(a.avg_closeness)),
            ("min_distinct_l".into(), Json::Num(a.min_distinct_l as f64)),
            ("avg_distinct_l".into(), Json::Num(a.avg_distinct_l)),
            ("min_inv_max_freq_l".into(), Json::Num(a.min_inv_max_freq_l)),
            ("max_delta".into(), Json::Num(a.max_delta)),
            ("min_ec_size".into(), Json::Num(a.min_ec_size as f64)),
            ("num_ecs".into(), Json::Num(a.num_ecs as f64)),
        ]),
    };
    let columns: Vec<Json> = (0..snap.table.schema().arity())
        .map(|i| nums_u32(snap.table.column(i)))
        .collect();
    Ok(Json::Obj(vec![
        ("params".into(), params),
        ("schema".into(), schema),
        ("rows".into(), Json::Num(snap.table.num_rows() as f64)),
        ("columns".into(), Json::Arr(columns)),
        ("form".into(), form),
        ("audit".into(), audit),
    ]))
}

fn gc(store: &ArtifactStore, keep: &[String]) -> Result<(), Failure> {
    if keep.is_empty() {
        return Err(Failure::usage(
            "gc requires at least one --keep HANDLE (refusing to delete everything)",
        ));
    }
    for handle in keep {
        if store.entry(handle).is_none() {
            return Err(Failure::error(format!(
                "--keep {handle}: no such stored artifact"
            )));
        }
    }
    let mut removed = 0usize;
    for handle in store.handles() {
        if keep.iter().any(|k| k == &handle) {
            continue;
        }
        store
            .remove(&handle)
            .map_err(|e| Failure::error(format!("remove {handle}: {e}")))?;
        println!("removed {handle}");
        removed += 1;
    }
    println!("kept {} artifact(s), removed {removed}", keep.len());
    Ok(())
}
