//! File exporters: write rendered JSON documents and CSV tables under
//! `results/`.

use std::io;
use std::path::Path;

/// Writes already-rendered text (e.g. a CSV document) to `path`, creating
/// parent directories as needed.
pub fn write_text(path: impl AsRef<Path>, text: &str) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a scratch directory named per process"
    )]
    fn writes_into_fresh_directory() {
        let dir = std::env::temp_dir().join(format!("pcmap-obs-test-{}", std::process::id()));
        let path = dir.join("nested/out.json");
        let mut v = Value::obj();
        v.set("ok", Value::Bool(true));
        write_text(&path, &v.to_json_pretty()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(crate::json::parse(&text).unwrap(), v);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
