//! A tiny named-column table ("frame") for emitting experiment rows.
//!
//! The experiment harness produces the paper's tables and figure series as
//! rows; a `Frame` holds them with typed columns (strings or numbers)
//! and exports CSV for EXPERIMENTS.md.

/// Frame construction/access errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A column with this name already exists.
    DuplicateColumn(String),
    /// Column lengths disagree.
    LengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Its length.
        got: usize,
        /// The frame's row count.
        expected: usize,
    },
    /// No column with this name.
    NoSuchColumn(String),
    /// Requested a numeric operation on a string column (or vice versa).
    TypeMismatch(String),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::DuplicateColumn(c) => write!(f, "duplicate column {c:?}"),
            FrameError::LengthMismatch {
                column,
                got,
                expected,
            } => write!(f, "column {column:?} has {got} rows, frame has {expected}"),
            FrameError::NoSuchColumn(c) => write!(f, "no column {c:?}"),
            FrameError::TypeMismatch(c) => write!(f, "column {c:?} has the wrong type"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A single column: all strings or all numbers.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Column {
    /// Text column (labels, system names, months).
    Text(Vec<String>),
    /// Numeric column.
    Number(Vec<f64>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Text(v) => v.len(),
            Column::Number(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cell_to_string(&self, row: usize) -> String {
        match self {
            Column::Text(v) => v[row].clone(),
            Column::Number(v) => {
                let x = if v[row] == 0.0 { 0.0 } else { v[row] }; // normalize -0.0
                if x == x.trunc() && x.abs() < 1e15 {
                    format!("{x}")
                } else {
                    let s = format!("{x:.6}");
                    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
                    trimmed.to_string()
                }
            }
        }
    }
}

/// A small, ordered, named-column table.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Frame {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl Frame {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Row count (0 for an empty frame).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Column count.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Adds a text column.
    pub fn push_text(
        &mut self,
        name: impl Into<String>,
        values: Vec<String>,
    ) -> Result<(), FrameError> {
        self.push_column(name.into(), Column::Text(values))
    }

    /// Adds a numeric column.
    pub fn push_number(
        &mut self,
        name: impl Into<String>,
        values: Vec<f64>,
    ) -> Result<(), FrameError> {
        self.push_column(name.into(), Column::Number(values))
    }

    fn push_column(&mut self, name: String, column: Column) -> Result<(), FrameError> {
        if self.names.contains(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                column: name,
                got: column.len(),
                expected: self.n_rows(),
            });
        }
        self.names.push(name);
        self.columns.push(column);
        Ok(())
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column, FrameError> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.columns[i])
            .ok_or_else(|| FrameError::NoSuchColumn(name.to_string()))
    }

    /// Numeric column accessor.
    pub fn numbers(&self, name: &str) -> Result<&[f64], FrameError> {
        match self.column(name)? {
            Column::Number(v) => Ok(v),
            Column::Text(_) => Err(FrameError::TypeMismatch(name.to_string())),
        }
    }

    /// Text column accessor.
    pub fn texts(&self, name: &str) -> Result<&[String], FrameError> {
        match self.column(name)? {
            Column::Text(v) => Ok(v),
            Column::Number(_) => Err(FrameError::TypeMismatch(name.to_string())),
        }
    }

    /// Renders the frame as CSV (header + rows). Cells containing commas or
    /// quotes are quoted.
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .names
                .iter()
                .map(|n| escape(n))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in 0..self.n_rows() {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| escape(&c.cell_to_string(row)))
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the frame as a GitHub-flavored markdown table, used by the
    /// experiment report binary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.names.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.names {
            out.push_str("---|");
        }
        out.push('\n');
        for row in 0..self.n_rows() {
            out.push_str("| ");
            let cells: Vec<String> = self.columns.iter().map(|c| c.cell_to_string(row)).collect();
            out.push_str(&cells.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        let mut f = Frame::new();
        f.push_text(
            "system",
            vec!["Marconi".into(), "Fugaku".into(), "Marconi".into()],
        )
        .unwrap();
        f.push_number("water", vec![1.5, 2.0, 2.5]).unwrap();
        f
    }

    #[test]
    fn basic_shape() {
        let f = sample();
        assert_eq!(f.n_rows(), 3);
        assert_eq!(f.n_cols(), 2);
        assert_eq!(f.names(), &["system".to_string(), "water".to_string()]);
        assert_eq!(f.numbers("water").unwrap()[1], 2.0);
        assert_eq!(f.texts("system").unwrap()[0], "Marconi");
    }

    #[test]
    fn errors() {
        let mut f = sample();
        assert!(matches!(
            f.push_number("water", vec![1.0, 2.0, 3.0]),
            Err(FrameError::DuplicateColumn(_))
        ));
        assert!(matches!(
            f.push_number("short", vec![1.0]),
            Err(FrameError::LengthMismatch { .. })
        ));
        assert!(matches!(f.column("nope"), Err(FrameError::NoSuchColumn(_))));
        assert!(matches!(
            f.numbers("system"),
            Err(FrameError::TypeMismatch(_))
        ));
        assert!(matches!(f.texts("water"), Err(FrameError::TypeMismatch(_))));
    }

    #[test]
    fn csv_rendering_escapes() {
        let mut f = Frame::new();
        f.push_text("label", vec!["a,b".into(), "plain".into()])
            .unwrap();
        f.push_number("x", vec![1.0, 2.5]).unwrap();
        let csv = f.to_csv();
        assert!(csv.starts_with("label,x\n"));
        assert!(csv.contains("\"a,b\",1\n"));
        assert!(csv.contains("plain,2.5"));
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.starts_with("| system | water |"));
        assert!(md.contains("| Marconi | 1.5 |"));
    }

    #[test]
    fn empty_frame() {
        let f = Frame::new();
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.to_csv(), "\n");
    }
}
