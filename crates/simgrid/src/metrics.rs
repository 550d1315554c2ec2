//! Measurement collection: named time series, exactly what the paper's
//! figures plot (cumulative jobs, available FDs, transfers,
//! collisions…). Serializable so the figure harness can emit JSON.

use retry::Time;
use std::fmt::Write;

/// Escape a string for inclusion in a JSON document. Shared by the
/// figure serializers here and the structured-trace JSONL sink
/// ([`crate::trace::JsonlSink`]).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format a float as a JSON number (finite values only; non-finite
/// values are clamped to null, which JSON cannot represent as a float).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A named series of `(seconds, value)` points.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Points in time order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Series {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, t: Time, v: f64) {
        self.points.push((t.as_secs_f64(), v));
    }

    /// Append an (x, y) sample where x is not a time (e.g. "number of
    /// submitters").
    pub fn push_xy(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Largest value in the series.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Smallest value in the series.
    pub fn min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Arithmetic mean of values.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Compact JSON, shaped like `{"name":…,"points":[[x,y],…]}`.
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|&(x, y)| format!("[{},{}]", json_f64(x), json_f64(y)))
            .collect();
        format!(
            "{{\"name\":\"{}\",\"points\":[{}]}}",
            json_escape(&self.name),
            points.join(",")
        )
    }
}

/// Percentile of a sample set (nearest-rank; `q` in [0, 1]). Returns
/// `None` on an empty set.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let q = q.clamp(0.0, 1.0);
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// A group of series belonging to one figure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SeriesSet {
    /// Figure title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The member series.
    pub series: Vec<Series>,
}

impl SeriesSet {
    /// An empty figure.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> SeriesSet {
        SeriesSet {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a member series and return a handle to it.
    pub fn add(&mut self, s: Series) -> &mut Series {
        self.series.push(s);
        self.series.last_mut().expect("just pushed")
    }

    /// Look up a member series by name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Compact JSON for the whole figure.
    pub fn to_json(&self) -> String {
        let series: Vec<String> = self.series.iter().map(|s| s.to_json()).collect();
        format!(
            "{{\"title\":\"{}\",\"x_label\":\"{}\",\"y_label\":\"{}\",\"series\":[{}]}}",
            json_escape(&self.title),
            json_escape(&self.x_label),
            json_escape(&self.y_label),
            series.join(",")
        )
    }

    /// Indented JSON for the whole figure (one series per line block,
    /// points kept compact).
    pub fn to_json_pretty(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"title\": \"{}\",", json_escape(&self.title));
        let _ = writeln!(out, "  \"x_label\": \"{}\",", json_escape(&self.x_label));
        let _ = writeln!(out, "  \"y_label\": \"{}\",", json_escape(&self.y_label));
        let _ = writeln!(out, "  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            let comma = if i + 1 < self.series.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{}", s.to_json(), comma);
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// Render an ASCII line chart (roughly the paper's figure, in the
    /// terminal): one glyph per series, shared axes, legend below.
    pub fn to_ascii_chart(&self, width: usize, height: usize) -> String {
        const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
        let width = width.max(16);
        let height = height.max(6);
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_min, mut y_max) = (0.0f64, f64::NEG_INFINITY);
        for s in &self.series {
            for &(x, y) in &s.points {
                x_min = x_min.min(x);
                x_max = x_max.max(x);
                y_min = y_min.min(y);
                y_max = y_max.max(y);
            }
        }
        if !x_min.is_finite() || !y_max.is_finite() {
            return format!("# {} (no data)\n", self.title);
        }
        if (x_max - x_min).abs() < f64::EPSILON {
            x_max = x_min + 1.0;
        }
        if (y_max - y_min).abs() < f64::EPSILON {
            y_max = y_min + 1.0;
        }
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let g = GLYPHS[si % GLYPHS.len()];
            for &(x, y) in &s.points {
                let cx = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
                let cy = ((y - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
                let row = height - 1 - cy.min(height - 1);
                grid[row][cx.min(width - 1)] = g;
            }
        }
        let mut out = String::new();
        use std::fmt::Write;
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{y_max:>10.1} ┤");
        for row in &grid {
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{:>10} │{}", "", line);
        }
        let _ = writeln!(out, "{y_min:>10.1} ┼{}", "─".repeat(width));
        let _ = writeln!(
            out,
            "{:>11}{x_min:<12.1}{:>width$.1}",
            "",
            x_max,
            width = width.saturating_sub(12)
        );
        let _ = write!(out, "{:>11}{}:", "", self.x_label);
        for (si, s) in self.series.iter().enumerate() {
            let _ = write!(out, "  [{}] {}", GLYPHS[si % GLYPHS.len()], s.name);
        }
        out.push('\n');
        out
    }

    /// Render as a Markdown table under a `# title` line: a header row
    /// (the x label, then the series names), then one row per sample
    /// index, each cell the value's shortest round-trip text (`{}`)
    /// and empty where a series has no point there. `egbench::emit`
    /// writes it to `results/NAME.md`, and the docs copy its `|` lines.
    pub fn to_table(&self) -> String {
        let header =
            std::iter::once(self.x_label.clone()).chain(self.series.iter().map(|s| s.name.clone()));
        let mut out = format!(
            "# {}\n\n{}|{}\n",
            self.title,
            md_row(header),
            "---:|".repeat(self.series.len() + 1)
        );
        let n = self.series.iter().map(Series::len).max().unwrap_or(0);
        for i in 0..n {
            // The series share one x grid: the first with an i-th point
            // names the row's x.
            let x = self.series.iter().find_map(|s| s.points.get(i));
            let values = self.series.iter().map(|s| {
                s.points
                    .get(i)
                    .map_or(String::new(), |&(_, v)| v.to_string())
            });
            out += &md_row(x.map(|&(x, _)| x.to_string()).into_iter().chain(values));
        }
        out
    }
}

/// One Markdown table row, a `|` inside a cell escaped.
fn md_row(cells: impl Iterator<Item = String>) -> String {
    let cells: Vec<String> = cells.map(|c| c.replace('|', "\\|")).collect();
    format!("| {} |\n", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut v, 0.5), Some(3.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut v, 1.0), Some(5.0));
        assert_eq!(percentile(&mut v, 0.9), Some(5.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn push_and_stats() {
        let mut s = Series::new("jobs");
        s.push(Time::from_secs(1), 10.0);
        s.push(Time::from_secs(2), 30.0);
        s.push(Time::from_secs(3), 20.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last(), Some(20.0));
        assert_eq!(s.max(), Some(30.0));
        assert_eq!(s.min(), Some(10.0));
        assert_eq!(s.mean(), Some(20.0));
    }

    #[test]
    fn empty_stats() {
        let s = Series::new("x");
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn set_lookup_and_table() {
        let mut set = SeriesSet::new("Fig 1", "submitters", "jobs");
        let a = set.add(Series::new("Ethernet"));
        a.push_xy(100.0, 800.0);
        a.push_xy(200.0, 700.0);
        let b = set.add(Series::new("Fixed"));
        b.push_xy(100.0, 750.0);
        b.push_xy(200.0, 0.0);
        assert!(set.get("Ethernet").is_some());
        assert!(set.get("Aloha").is_none());
        // A `|` in a name is escaped; a series with no point at a row
        // leaves its cell empty.
        set.add(Series::new("p|q")).push_xy(100.0, 1.5);
        assert_eq!(
            set.to_table(),
            "# Fig 1\n\n| submitters | Ethernet | Fixed | p\\|q |\n|---:|---:|---:|---:|\n\
             | 100 | 800 | 750 | 1.5 |\n| 200 | 700 | 0 |  |\n"
        );
    }

    #[test]
    fn ascii_chart_renders_and_scales() {
        let mut set = SeriesSet::new("Fig", "x", "y");
        let a = set.add(Series::new("up"));
        for i in 0..10 {
            a.push_xy(i as f64, i as f64 * 10.0);
        }
        let chart = set.to_ascii_chart(40, 10);
        assert!(chart.contains("# Fig"));
        assert!(chart.contains('*'), "points plotted");
        assert!(chart.contains("90.0"), "y max labelled");
        assert!(chart.contains("[*] up"), "legend present");
        // Empty set degrades gracefully.
        let empty = SeriesSet::new("E", "x", "y");
        assert!(empty.to_ascii_chart(40, 10).contains("no data"));
    }

    #[test]
    fn serializes_to_json() {
        let mut s = Series::new("t");
        s.push(Time::from_secs(1), 2.0);
        let j = s.to_json();
        assert!(j.contains("\"name\":\"t\""));
        assert_eq!(j, "{\"name\":\"t\",\"points\":[[1,2]]}");
    }

    #[test]
    fn json_escapes_special_characters() {
        let s = Series::new("a\"b\\c\nd");
        assert_eq!(s.to_json(), "{\"name\":\"a\\\"b\\\\c\\nd\",\"points\":[]}");
    }

    #[test]
    fn set_json_nests_series() {
        let mut set = SeriesSet::new("Fig 1", "x", "y");
        set.add(Series::new("A")).push_xy(1.0, 2.5);
        let j = set.to_json();
        assert!(j.contains("\"title\":\"Fig 1\""));
        assert!(j.contains("[1,2.5]"));
        let p = set.to_json_pretty();
        assert!(p.contains("\"series\": ["));
        assert!(p.ends_with('}'));
    }
}
