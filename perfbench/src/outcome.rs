//! What one benchmark run reports.

use serde_json::{Map, Value};

/// A run's verdict, operation counts and metrics, in print order.
#[derive(Debug, Default)]
pub struct Outcome {
    /// First few check failures; empty when every output checked out.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records a check failure (keeps the first 20 messages).
    pub fn error(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        } else if self.errors.len() == 20 {
            self.errors
                .push("further check failures omitted".to_string());
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, value, unit) in &self.metrics {
            let mut m = Map::new();
            m.insert("value".to_string(), Value::from(*value));
            m.insert("unit".to_string(), Value::from(unit.as_str()));
            metrics.insert(name.clone(), Value::Object(m));
        }
        let mut top = Map::new();
        top.insert("correct".to_string(), Value::from(self.errors.is_empty()));
        top.insert("attempted".to_string(), Value::from(self.attempted));
        top.insert("failed".to_string(), Value::from(self.failed));
        top.insert("metrics".to_string(), Value::Object(metrics));
        Value::Object(top)
    }
}
