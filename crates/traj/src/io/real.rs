//! Parsers for the *real* evaluation datasets — the Porto taxi dump
//! (Kaggle `train.csv`, one quoted-CSV row per trip with a JSON
//! `POLYLINE`) and GeoLife `.plt` logs — and [`load_real_dataset`], which
//! turns a directory of such dumps into a [`Dataset`].
//!
//! # Normalization
//!
//! Raw dumps are irregular and epoch-anchored; the pipeline wants dense,
//! regularly-sampled trajectories starting near timestep 0. Both loaders
//! apply the same documented normalization:
//!
//! 1. **Parse** each trip/log into `(seconds, lon, lat)` records.
//!    Porto polylines are 15 s cadence anchored at the trip `TIMESTAMP`;
//!    GeoLife rows carry fractional-day timestamps (field 5) that are
//!    converted to seconds.
//! 2. **Rebase** time: the global minimum timestamp across the dump maps
//!    to 0, so timesteps stay small and the [`Dataset`] time index stays
//!    dense.
//! 3. **Resample** onto the regular grid with
//!    [`crate::resample::resample_trace`]: linear interpolation at the
//!    configured interval, splitting at gaps larger than `max_gap`
//!    (never interpolating across a hole), dropping segments shorter
//!    than `min_len` (the paper filters to length ≥ 30).
//!
//! Every malformed input — bad rows, out-of-order timestamps, duplicate
//! trip ids, empty files, invalid/truncated UTF-8 — is a typed
//! [`RealDataError`], never a panic: these files arrive from the
//! outside world.

use crate::dataset::Dataset;
use crate::resample::{resample_trace, ResampleConfig};
use crate::trajectory::Trajectory;
use ppq_geo::Point;
use std::collections::HashSet;
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};

/// Typed failures of the real-dataset readers.
#[derive(Debug)]
pub enum RealDataError {
    Io(io::Error),
    /// A line is not valid UTF-8 (e.g. a dump truncated mid-codepoint).
    Utf8 {
        line: usize,
    },
    /// A structurally malformed row: wrong field count, unparsable
    /// number, bad polyline syntax, an unterminated quote, …
    Parse {
        line: usize,
        msg: String,
    },
    /// Timestamps within one trace moved backwards.
    OutOfOrder {
        line: usize,
    },
    /// The same trip id appeared twice in a Porto dump.
    DuplicateTrip {
        line: usize,
        trip_id: String,
    },
    /// The file had a header (or nothing) but no data rows.
    Empty,
}

impl std::fmt::Display for RealDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealDataError::Io(e) => write!(f, "io error: {e}"),
            RealDataError::Utf8 { line } => {
                write!(f, "line {line}: invalid (possibly truncated) UTF-8")
            }
            RealDataError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            RealDataError::OutOfOrder { line } => {
                write!(f, "line {line}: timestamps out of order")
            }
            RealDataError::DuplicateTrip { line, trip_id } => {
                write!(f, "line {line}: duplicate trip id {trip_id}")
            }
            RealDataError::Empty => write!(f, "no data rows in file"),
        }
    }
}

impl std::error::Error for RealDataError {}

impl From<io::Error> for RealDataError {
    fn from(e: io::Error) -> Self {
        RealDataError::Io(e)
    }
}

/// Read raw byte lines and validate UTF-8 ourselves: `BufRead::lines`
/// folds encoding problems into an opaque `io::Error`, which would make
/// a truncated dump indistinguishable from a disk fault.
struct Utf8Lines<R: BufRead> {
    input: R,
    line: usize,
    buf: Vec<u8>,
}

impl<R: BufRead> Utf8Lines<R> {
    fn new(input: R) -> Self {
        Utf8Lines {
            input,
            line: 0,
            buf: Vec::new(),
        }
    }

    /// `Ok(None)` at EOF; the returned line number is 1-based.
    fn next(&mut self) -> Result<Option<(usize, String)>, RealDataError> {
        self.buf.clear();
        let n = self.input.read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.line += 1;
        while matches!(self.buf.last(), Some(b'\n' | b'\r')) {
            self.buf.pop();
        }
        match std::str::from_utf8(&self.buf) {
            Ok(s) => Ok(Some((self.line, s.to_string()))),
            Err(_) => Err(RealDataError::Utf8 { line: self.line }),
        }
    }
}

/// Split one CSV row honoring double-quoted fields (`""` is an escaped
/// quote). Returns the unquoted field values.
fn split_csv_row(line: &str, lineno: usize) -> Result<Vec<String>, RealDataError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            None => {
                fields.push(std::mem::take(&mut cur));
                return Ok(fields);
            }
            Some('"') => {
                chars.next();
                loop {
                    match chars.next() {
                        None => {
                            return Err(RealDataError::Parse {
                                line: lineno,
                                msg: "unterminated quoted field".into(),
                            })
                        }
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                cur.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => cur.push(c),
                    }
                }
            }
            Some(',') => {
                chars.next();
                fields.push(std::mem::take(&mut cur));
            }
            Some(_) => cur.push(chars.next().expect("peeked")),
        }
    }
}

/// Parse a Porto `POLYLINE` value: a JSON array of `[lon, lat]` pairs.
fn parse_polyline(s: &str, lineno: usize) -> Result<Vec<Point>, RealDataError> {
    let err = |msg: &str| RealDataError::Parse {
        line: lineno,
        msg: format!("bad POLYLINE: {msg}"),
    };
    let s = s.trim();
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err("not a JSON array"))?
        .trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let mut points = Vec::new();
    // Pairs look like `[-8.61,41.14]`, separated by commas.
    let mut rest = inner;
    loop {
        let open = rest.find('[').ok_or_else(|| err("expected `[`"))?;
        let close = rest[open..]
            .find(']')
            .map(|i| open + i)
            .ok_or_else(|| err("unclosed pair"))?;
        let pair = &rest[open + 1..close];
        let mut nums = pair.split(',');
        let lon: f64 = nums
            .next()
            .ok_or_else(|| err("missing lon"))?
            .trim()
            .parse()
            .map_err(|_| err("unparsable lon"))?;
        let lat: f64 = nums
            .next()
            .ok_or_else(|| err("missing lat"))?
            .trim()
            .parse()
            .map_err(|_| err("unparsable lat"))?;
        if nums.next().is_some() {
            return Err(err("pair has more than two coordinates"));
        }
        if !lon.is_finite() || !lat.is_finite() {
            return Err(err("non-finite coordinate"));
        }
        points.push(Point::new(lon, lat));
        rest = &rest[close + 1..];
        match rest.trim_start().strip_prefix(',') {
            Some(r) => rest = r,
            None => {
                if !rest.trim().is_empty() {
                    return Err(err("trailing junk after pair"));
                }
                return Ok(points);
            }
        }
    }
}

/// One parsed Porto trip: `(trip_id, start epoch seconds, points)` at the
/// taxi fleet's fixed 15 s cadence.
pub type PortoTrip = (String, f64, Vec<Point>);

/// Sampling cadence of the Porto taxi dump (seconds between polyline
/// points, fixed by the data provider).
pub const PORTO_CADENCE_SECONDS: f64 = 15.0;

/// Parse the Kaggle Porto `train.csv` format: a header row, then one
/// quoted-CSV row per trip whose last field is the JSON `POLYLINE`.
/// Rows flagged `MISSING_DATA == True` and empty polylines are skipped
/// (the paper's preprocessing drops them too). `limit` caps the number
/// of *kept* trips.
pub fn read_porto_csv<R: BufRead>(
    input: R,
    limit: Option<usize>,
) -> Result<Vec<PortoTrip>, RealDataError> {
    let mut lines = Utf8Lines::new(input);
    let mut trips: Vec<PortoTrip> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut header: Option<Vec<String>> = None;
    let (mut id_col, mut ts_col, mut poly_col, mut missing_col) = (0usize, 5usize, 8usize, 7usize);
    while let Some((lineno, line)) = lines.next()? {
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_csv_row(&line, lineno)?;
        if header.is_none() {
            // First non-empty row must be the header; locate the columns
            // by name so column-reordered extracts still parse.
            let names: Vec<String> = fields.iter().map(|f| f.trim().to_uppercase()).collect();
            let find = |name: &str| names.iter().position(|n| n == name);
            match (find("TRIP_ID"), find("TIMESTAMP"), find("POLYLINE")) {
                (Some(i), Some(t), Some(p)) => {
                    id_col = i;
                    ts_col = t;
                    poly_col = p;
                    missing_col = find("MISSING_DATA").unwrap_or(usize::MAX);
                    header = Some(names);
                    continue;
                }
                _ => {
                    return Err(RealDataError::Parse {
                        line: lineno,
                        msg: "header must name TRIP_ID, TIMESTAMP and POLYLINE columns".into(),
                    })
                }
            }
        }
        let need = poly_col.max(ts_col).max(id_col) + 1;
        if fields.len() < need {
            return Err(RealDataError::Parse {
                line: lineno,
                msg: format!("expected at least {need} fields, got {}", fields.len()),
            });
        }
        let trip_id = fields[id_col].trim().to_string();
        if trip_id.is_empty() {
            return Err(RealDataError::Parse {
                line: lineno,
                msg: "empty TRIP_ID".into(),
            });
        }
        if !seen.insert(trip_id.clone()) {
            return Err(RealDataError::DuplicateTrip {
                line: lineno,
                trip_id,
            });
        }
        if missing_col != usize::MAX
            && fields
                .get(missing_col)
                .is_some_and(|f| f.trim().eq_ignore_ascii_case("true"))
        {
            continue;
        }
        let start: f64 = fields[ts_col]
            .trim()
            .parse()
            .map_err(|_| RealDataError::Parse {
                line: lineno,
                msg: format!("bad TIMESTAMP `{}`", fields[ts_col]),
            })?;
        let points = parse_polyline(&fields[poly_col], lineno)?;
        if points.is_empty() {
            continue;
        }
        trips.push((trip_id, start, points));
        if limit.is_some_and(|n| trips.len() >= n) {
            break;
        }
    }
    if header.is_none() || seen.is_empty() {
        return Err(RealDataError::Empty);
    }
    Ok(trips)
}

/// Number of metadata lines a GeoLife `.plt` file carries before data.
const PLT_HEADER_LINES: usize = 6;

/// Parse one GeoLife `.plt` log into a raw `(seconds, position)` trace
/// (x = longitude, y = latitude). Timestamps come from the
/// fractional-days field and must be non-decreasing — GeoLife loggers
/// write in time order, so a regression means a corrupt or spliced file.
pub fn read_geolife_plt<R: BufRead>(input: R) -> Result<Vec<(f64, Point)>, RealDataError> {
    let mut lines = Utf8Lines::new(input);
    let mut trace: Vec<(f64, Point)> = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    let mut data_lines = 0usize;
    while let Some((lineno, line)) = lines.next()? {
        if lineno <= PLT_HEADER_LINES {
            continue; // fixed-size preamble, contents vary by logger
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        data_lines += 1;
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() < 5 {
            return Err(RealDataError::Parse {
                line: lineno,
                msg: format!("expected ≥ 5 fields, got {}", fields.len()),
            });
        }
        let lat: f64 = fields[0].trim().parse().map_err(|_| RealDataError::Parse {
            line: lineno,
            msg: format!("bad latitude `{}`", fields[0]),
        })?;
        let lon: f64 = fields[1].trim().parse().map_err(|_| RealDataError::Parse {
            line: lineno,
            msg: format!("bad longitude `{}`", fields[1]),
        })?;
        let days: f64 = fields[4].trim().parse().map_err(|_| RealDataError::Parse {
            line: lineno,
            msg: format!("bad timestamp `{}`", fields[4]),
        })?;
        if !lat.is_finite() || !lon.is_finite() || !days.is_finite() {
            return Err(RealDataError::Parse {
                line: lineno,
                msg: "non-finite value".into(),
            });
        }
        let t = days * 86_400.0;
        if t < last_t {
            return Err(RealDataError::OutOfOrder { line: lineno });
        }
        last_t = t;
        trace.push((t, Point::new(lon, lat)));
    }
    if data_lines == 0 {
        return Err(RealDataError::Empty);
    }
    Ok(trace)
}

/// Which real dataset to load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RealDataset {
    /// Kaggle Porto taxi dump: `<dir>/porto.csv` or `<dir>/porto/train.csv`.
    Porto,
    /// GeoLife logs: every `*.plt` under `<dir>/geolife/`.
    Geolife,
}

impl RealDataset {
    /// The resample parameters the paper's preprocessing implies.
    pub fn default_resample(&self) -> ResampleConfig {
        match self {
            // Porto is natively 15 s; resampling is a pass-through that
            // still enforces the length filter and gap discipline.
            RealDataset::Porto => ResampleConfig {
                interval: 15.0,
                max_gap: 120.0,
                min_len: 30,
            },
            // GeoLife logs at 1–5 s; 15 s keeps the timestep semantics
            // aligned with Porto while tolerating logger dropouts.
            RealDataset::Geolife => ResampleConfig {
                interval: 15.0,
                max_gap: 300.0,
                min_len: 30,
            },
        }
    }
}

/// Recursively collect `*.plt` files under `dir`, sorted by path so the
/// resulting trajectory ids are stable across runs and machines.
fn collect_plt_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_plt_files(&path, out)?;
        } else if path
            .extension()
            .is_some_and(|e| e.eq_ignore_ascii_case("plt"))
        {
            out.push(path);
        }
    }
    Ok(())
}

/// Load and normalize a real dataset from `data_dir` (see the module
/// docs for the normalization contract). `limit` caps the number of raw
/// traces read before resampling.
pub fn load_real_dataset(
    kind: RealDataset,
    data_dir: &Path,
    cfg: &ResampleConfig,
    limit: Option<usize>,
) -> Result<Dataset, RealDataError> {
    let mut traces: Vec<Vec<(f64, Point)>> = Vec::new();
    match kind {
        RealDataset::Porto => {
            let candidates = [data_dir.join("porto.csv"), data_dir.join("porto/train.csv")];
            let path = candidates.iter().find(|p| p.is_file()).ok_or_else(|| {
                RealDataError::Io(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "no porto.csv or porto/train.csv under {}",
                        data_dir.display()
                    ),
                ))
            })?;
            let file = io::BufReader::new(std::fs::File::open(path)?);
            for (_, start, points) in read_porto_csv(file, limit)? {
                traces.push(
                    points
                        .into_iter()
                        .enumerate()
                        .map(|(i, p)| (start + i as f64 * PORTO_CADENCE_SECONDS, p))
                        .collect(),
                );
            }
        }
        RealDataset::Geolife => {
            let root = data_dir.join("geolife");
            let mut files = Vec::new();
            collect_plt_files(&root, &mut files)?;
            if let Some(n) = limit {
                files.truncate(n);
            }
            if files.is_empty() {
                return Err(RealDataError::Empty);
            }
            for path in files {
                let file = io::BufReader::new(std::fs::File::open(&path)?);
                traces.push(read_geolife_plt(file)?);
            }
        }
    }
    // Rebase: global minimum timestamp → 0 so timesteps stay dense.
    let t0 = traces
        .iter()
        .flat_map(|t| t.first())
        .map(|(t, _)| *t)
        .fold(f64::INFINITY, f64::min);
    if !t0.is_finite() {
        return Err(RealDataError::Empty);
    }
    let mut trajs: Vec<Trajectory> = Vec::new();
    for trace in &mut traces {
        for rec in trace.iter_mut() {
            rec.0 -= t0;
        }
        for (start, points) in resample_trace(trace, cfg) {
            trajs.push(Trajectory::new(0, start, points));
        }
    }
    if trajs.is_empty() {
        return Err(RealDataError::Empty);
    }
    Ok(Dataset::new(trajs))
}
