//! The newline-delimited JSON wire format.
//!
//! Every request and response is one [`Json`] object rendered with
//! [`Json::compact`] and terminated by `\n`. Requests carry an `"op"`
//! member (`ping`, `datasets`, `publish`, `count`, `audit`, `verify`,
//! `health`, `shutdown`); responses always carry `"ok"` (and `"error"`
//! when `false`). The `verify` op takes a `handle` plus an optional
//! boolean `battery` and answers with the independent conformance oracle's
//! verdict document (see the `betalike-conformance` crate). The `health`
//! op reports queue depth, shed count and store status without touching
//! any artifact.
//!
//! Errors come in two classes (DESIGN.md §12): *fatal* rejections carry
//! only `ok: false` + `error`, while *retryable* conditions — the server
//! shedding load, a degraded store, a publish deadline expiring — add
//! `retryable: true` and a stable `code` ([`ERR_OVERLOADED`],
//! [`ERR_DEGRADED`], [`ERR_DEADLINE`]) so clients can back off and retry
//! without scraping messages.
//!
//! Publications are *content-addressed*: the handle of a publish request is
//! an FNV-1a hash of its canonical parameter string, so equal requests from
//! any client name the same cached artifact and a republish is a cache hit.

use crate::registry::DatasetSpec;
use betalike_microdata::json::Json;
use betalike_query::RangePred;

/// The anonymization scheme a publish request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// BUREL generalization (the paper's Section 4 algorithm).
    Burel,
    /// The SABRE t-closeness baseline.
    Sabre,
    /// Mondrian constrained by β-likeness (the paper's LMondrian).
    Mondrian,
    /// Anatomy-style release: exact QIs + global SA histogram.
    Anatomy,
    /// β-likeness by perturbation (Section 5).
    Perturb,
}

impl Algo {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Algo::Burel => "burel",
            Algo::Sabre => "sabre",
            Algo::Mondrian => "mondrian",
            Algo::Anatomy => "anatomy",
            Algo::Perturb => "perturb",
        }
    }

    /// Parses the wire name.
    ///
    /// # Errors
    ///
    /// Names the unknown algorithm.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "burel" => Ok(Algo::Burel),
            "sabre" => Ok(Algo::Sabre),
            "mondrian" => Ok(Algo::Mondrian),
            "anatomy" => Ok(Algo::Anatomy),
            "perturb" => Ok(Algo::Perturb),
            other => Err(format!(
                "unknown algo `{other}` (expected burel | sabre | mondrian | anatomy | perturb)"
            )),
        }
    }
}

/// One publish request: which dataset, which scheme, which parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishRequest {
    /// The dataset to publish.
    pub dataset: DatasetSpec,
    /// The anonymization scheme.
    pub algo: Algo,
    /// How many QI attributes (a prefix of the dataset's QI pool).
    pub qi: usize,
    /// β threshold (BUREL / Mondrian / perturbation).
    pub beta: f64,
    /// t threshold (SABRE).
    pub t: f64,
    /// Algorithm seed.
    pub seed: u64,
}

impl PublishRequest {
    /// A request at the workspace defaults (β = 4, t = 0.2, seed = 42,
    /// QI = 3 capped to the dataset pool elsewhere).
    pub fn new(dataset: DatasetSpec, algo: Algo) -> Self {
        PublishRequest {
            dataset,
            algo,
            qi: 3,
            beta: 4.0,
            t: 0.2,
            seed: 42,
        }
        .normalized()
    }

    /// Zeroes the parameters the chosen scheme ignores, so requests that
    /// must produce identical artifacts hash to identical handles (anatomy
    /// ignores β, t, seed and the QI prefix; perturbation generalizes no
    /// QI; and so on).
    pub fn normalized(mut self) -> Self {
        match self.algo {
            Algo::Burel | Algo::Mondrian => self.t = 0.0,
            Algo::Sabre => self.beta = 0.0,
            Algo::Perturb => {
                self.t = 0.0;
                self.qi = 0;
            }
            Algo::Anatomy => {
                self.beta = 0.0;
                self.t = 0.0;
                self.seed = 0;
                self.qi = 0;
            }
        }
        if self.algo == Algo::Mondrian {
            // Mondrian's splitter is deterministic; the seed is unused.
            self.seed = 0;
        }
        self
    }

    /// The canonical parameter string the content-addressed handle hashes.
    pub fn canonical(&self) -> String {
        format!(
            "{}|algo={}|qi={}|beta={}|t={}|seed={}",
            self.dataset.canonical(),
            self.algo.as_str(),
            self.qi,
            self.beta,
            self.t,
            self.seed
        )
    }

    /// The content-addressed artifact handle of this request.
    pub fn handle(&self) -> String {
        format!("pub-{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// The full request document.
    pub fn to_json(&self) -> Json {
        let mut members = vec![("op".to_string(), Json::Str("publish".into()))];
        self.dataset.push_members(&mut members);
        members.push(("algo".into(), Json::Str(self.algo.as_str().into())));
        members.push(("qi".into(), Json::Num(self.qi as f64)));
        members.push(("beta".into(), Json::Num(self.beta)));
        members.push(("t".into(), Json::Num(self.t)));
        members.push(("seed".into(), Json::Num(self.seed as f64)));
        Json::Obj(members)
    }

    /// Parses (and normalizes) a request document.
    ///
    /// # Errors
    ///
    /// Returns a wire-level message on any missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let dataset = DatasetSpec::from_json(doc)?;
        let algo = Algo::parse(
            doc.get("algo")
                .and_then(Json::as_str)
                .ok_or("publish needs a string `algo`")?,
        )?;
        let qi = match doc.get("qi") {
            None => 3,
            Some(v) => v.as_usize().ok_or("`qi` must be a non-negative integer")?,
        };
        let num = |key: &str, default: f64| -> Result<f64, String> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v.as_f64().ok_or(format!("`{key}` must be a number")),
            }
        };
        let seed = match doc.get("seed") {
            None => 42,
            Some(v) => v.as_u64().ok_or("`seed` must be a non-negative integer")?,
        };
        Ok(PublishRequest {
            dataset,
            algo,
            qi,
            beta: num("beta", 4.0)?,
            t: num("t", 0.2)?,
            seed,
        }
        .normalized())
    }
}

/// Most QI predicates one `count` request may carry. Every predicate costs
/// the catalog a pass over its group mask and a factor per surviving group,
/// so an unbounded list buys unbounded worker time; a schema has at most a
/// few dozen attributes, and this leaves room for long same-attribute
/// conjunctions on each of them.
pub const MAX_PREDS: usize = 256;

/// Why a request document was refused: the message, plus a stable *fatal*
/// `code` when the refusal has one ([`ERR_BAD_REQUEST`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Machine-readable code, if the refusal carries one.
    pub code: Option<&'static str>,
    /// Human-readable message.
    pub message: String,
}

impl Refusal {
    /// The error response: [`fatal_coded_error`] with a code,
    /// [`error_response`] without one.
    pub fn to_json(&self) -> Json {
        match self.code {
            Some(code) => fatal_coded_error(code, &self.message),
            None => error_response(&self.message),
        }
    }
}

impl From<String> for Refusal {
    fn from(message: String) -> Self {
        Refusal {
            code: None,
            message,
        }
    }
}

impl From<&str> for Refusal {
    fn from(message: &str) -> Self {
        message.to_string().into()
    }
}

/// Callers that report errors as text keep using `?` on
/// [`CountRequest::from_json`]: the message, without the code.
impl From<Refusal> for String {
    fn from(refusal: Refusal) -> Self {
        refusal.message
    }
}

/// One count request against a published handle: QI range predicates plus
/// the SA range (the SA attribute is implied by the handle's dataset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountRequest {
    /// The artifact to query.
    pub handle: String,
    /// Range predicates over QI attributes.
    pub qi_preds: Vec<RangePred>,
    /// Inclusive SA range, low end.
    pub sa_lo: u32,
    /// Inclusive SA range, high end.
    pub sa_hi: u32,
    /// Whether the response should include the exact count from the
    /// original table (publisher-side ground truth).
    pub exact: bool,
}

impl CountRequest {
    /// The full request document.
    pub fn to_json(&self) -> Json {
        let preds = self
            .qi_preds
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("attr".into(), Json::Num(p.attr as f64)),
                    ("lo".into(), Json::Num(p.lo as f64)),
                    ("hi".into(), Json::Num(p.hi as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("op".into(), Json::Str("count".into())),
            ("handle".into(), Json::Str(self.handle.clone())),
            ("preds".into(), Json::Arr(preds)),
            (
                "sa".into(),
                Json::Obj(vec![
                    ("lo".into(), Json::Num(self.sa_lo as f64)),
                    ("hi".into(), Json::Num(self.sa_hi as f64)),
                ]),
            ),
            ("exact".into(), Json::Bool(self.exact)),
        ])
    }

    /// Parses a request document.
    ///
    /// # Errors
    ///
    /// Returns a wire-level message on any missing or malformed field, and
    /// an [`ERR_BAD_REQUEST`] refusal for more than [`MAX_PREDS`]
    /// predicates.
    pub fn from_json(doc: &Json) -> Result<Self, Refusal> {
        let handle = doc
            .get("handle")
            .and_then(Json::as_str)
            .ok_or("count needs a string `handle`")?
            .to_string();
        let code = |v: Option<&Json>, what: &str| -> Result<u32, String> {
            v.and_then(Json::as_u32)
                .ok_or(format!("{what} must be a u32 code"))
        };
        let preds = doc
            .get("preds")
            .and_then(Json::as_arr)
            .ok_or("count needs an array `preds`")?;
        if preds.len() > MAX_PREDS {
            return Err(Refusal {
                code: Some(ERR_BAD_REQUEST),
                message: format!(
                    "count has {} predicates; at most {MAX_PREDS} (MAX_PREDS) are accepted",
                    preds.len()
                ),
            });
        }
        let mut qi_preds = Vec::with_capacity(preds.len());
        for p in preds {
            let attr = p
                .get("attr")
                .and_then(Json::as_usize)
                .ok_or("pred `attr` must be an attribute index")?;
            let (lo, hi) = (
                code(p.get("lo"), "pred `lo`")?,
                code(p.get("hi"), "pred `hi`")?,
            );
            if lo > hi {
                return Err(format!("pred on attr {attr} has lo {lo} > hi {hi}").into());
            }
            qi_preds.push(RangePred { attr, lo, hi });
        }
        let sa = doc.get("sa").ok_or("count needs an `sa` range object")?;
        let (sa_lo, sa_hi) = (
            code(sa.get("lo"), "`sa.lo`")?,
            code(sa.get("hi"), "`sa.hi`")?,
        );
        if sa_lo > sa_hi {
            return Err(format!("SA range has lo {sa_lo} > hi {sa_hi}").into());
        }
        let exact = match doc.get("exact") {
            None => false,
            Some(v) => v.as_bool().ok_or("`exact` must be a boolean")?,
        };
        Ok(CountRequest {
            handle,
            qi_preds,
            sa_lo,
            sa_hi,
            exact,
        })
    }
}

/// 64-bit FNV-1a — the dependency-free hash behind content-addressed
/// handles (re-exported from [`betalike_microdata::hash`], which the
/// `betalike-store` snapshot checksums share).
pub use betalike_microdata::hash::fnv1a64;

/// A success response with the given extra members.
pub fn ok_response(members: Vec<(String, Json)>) -> Json {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(members);
    Json::Obj(all)
}

/// An error response.
pub fn error_response(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.into())),
    ])
}

/// Retryable error code: the admission queue is full and the connection
/// was shed.
pub const ERR_OVERLOADED: &str = "overloaded";
/// Retryable error code: the store has persistent write failures, so the
/// server is read-only (publishes refused, counts/audits still served).
pub const ERR_DEGRADED: &str = "degraded";
/// Retryable error code: the request's deadline expired before the answer
/// was ready (the work may continue in the background).
pub const ERR_DEADLINE: &str = "deadline";
/// *Fatal* error code: a request line exceeded the server's
/// `max_line_bytes` bound. The server answers one parseable refusal and
/// closes the connection — retrying the same oversized line cannot
/// succeed, so the error carries a `code` but no `retryable: true`.
pub const ERR_TOO_LARGE: &str = "too_large";
/// *Fatal* error code: a well-formed request beyond a documented protocol
/// bound ([`MAX_PREDS`]). Resending it as written cannot succeed.
pub const ERR_BAD_REQUEST: &str = "bad_request";

/// A *retryable* error response: `ok: false` plus a stable machine `code`
/// and `retryable: true`. Clients back off and retry these; plain
/// [`error_response`] rejections are fatal for the request as written.
pub fn retryable_error(code: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.into())),
        ("code".to_string(), Json::Str(code.into())),
        ("retryable".to_string(), Json::Bool(true)),
    ])
}

/// A *fatal* error response that still carries a stable machine `code`
/// ([`ERR_TOO_LARGE`], [`ERR_BAD_REQUEST`]): clients can classify the refusal without scraping
/// the message, but must not retry the request as written.
pub fn fatal_coded_error(code: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.into())),
        ("code".to_string(), Json::Str(code.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_roundtrips_and_content_addresses() {
        let req = PublishRequest {
            dataset: DatasetSpec::Census {
                rows: 2_000,
                seed: 42,
            },
            algo: Algo::Burel,
            qi: 3,
            beta: 4.0,
            t: 0.0,
            seed: 7,
        };
        let parsed = PublishRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed, req.clone().normalized());
        // Equal requests → equal handles; different β → different handle.
        assert_eq!(parsed.handle(), req.clone().normalized().handle());
        let other = PublishRequest {
            beta: 2.0,
            ..req.clone()
        };
        assert_ne!(other.normalized().handle(), req.normalized().handle());
    }

    #[test]
    fn normalization_ignores_irrelevant_parameters() {
        let spec = DatasetSpec::Patients;
        let a = PublishRequest {
            dataset: spec.clone(),
            algo: Algo::Anatomy,
            qi: 2,
            beta: 1.0,
            t: 0.5,
            seed: 1,
        };
        let b = PublishRequest {
            dataset: spec,
            algo: Algo::Anatomy,
            qi: 5,
            beta: 9.0,
            t: 0.1,
            seed: 77,
        };
        assert_eq!(
            a.normalized().handle(),
            b.normalized().handle(),
            "anatomy ignores beta/t/seed/qi"
        );
    }

    #[test]
    fn count_roundtrips_and_validates() {
        let req = CountRequest {
            handle: "pub-0123456789abcdef".into(),
            qi_preds: vec![
                RangePred {
                    attr: 0,
                    lo: 3,
                    hi: 40,
                },
                RangePred {
                    attr: 2,
                    lo: 0,
                    hi: 9,
                },
            ],
            sa_lo: 5,
            sa_hi: 20,
            exact: true,
        };
        assert_eq!(CountRequest::from_json(&req.to_json()).unwrap(), req);
        // Inverted ranges are rejected at the wire layer.
        let bad = Json::parse(
            r#"{"op":"count","handle":"h","preds":[{"attr":0,"lo":5,"hi":1}],"sa":{"lo":0,"hi":1}}"#,
        )
        .unwrap();
        assert!(CountRequest::from_json(&bad)
            .unwrap_err()
            .message
            .contains("lo 5"));
    }

    #[test]
    fn response_builders() {
        assert_eq!(
            ok_response(vec![("pong".into(), Json::Bool(true))]).compact(),
            r#"{"ok":true,"pong":true}"#
        );
        assert_eq!(
            error_response("nope").compact(),
            r#"{"ok":false,"error":"nope"}"#
        );
        assert_eq!(
            retryable_error(ERR_OVERLOADED, "queue full").compact(),
            r#"{"ok":false,"error":"queue full","code":"overloaded","retryable":true}"#
        );
    }
}
