//! A minimal JSON object writer (the benchmark has no dependencies).

/// A JSON object under construction; keys keep insertion order.
#[derive(Default, Clone)]
pub struct Obj(Vec<(String, String)>);

/// A finite number as JSON, with all its digits; anything else as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn raw(mut self, key: &str, value: String) -> Self {
        self.0.push((key.to_string(), value));
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    /// Add a number field.
    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, number(value))
    }

    /// Add a whole-number field.
    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    /// Add a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, value.to_string())
    }

    /// Add a nested object.
    pub fn obj(self, key: &str, value: Obj) -> Self {
        let rendered = value.render();
        self.raw(key, rendered)
    }

    /// Add an array of numbers.
    pub fn nums(self, key: &str, values: &[f64]) -> Self {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    /// Add an array of strings.
    pub fn strs(self, key: &str, values: &[String]) -> Self {
        let items: Vec<String> = values.iter().map(|v| string(v)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    /// Add an array of objects.
    pub fn list(self, key: &str, values: &[Obj]) -> Self {
        let items: Vec<String> = values.iter().map(Obj::render).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    /// Render as one line of JSON.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", string(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
