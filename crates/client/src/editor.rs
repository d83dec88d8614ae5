//! The shadow editor: encapsulating the user's editor (§6.2).
//!
//! "Shadow Editor encapsulates a conventional editor of the user's choice
//! … It does not modify an existing editor and the user's view of the
//! editor remains unchanged. It contains a postprocessor responsible for
//! carrying out tasks related to shadow processing at the end of an
//! editing session."
//!
//! [`ShadowEditor`] wraps any [`Editor`] implementation: it reads the file
//! from the virtual file system, lets the editor transform the content,
//! writes the result back, and reports the canonical identity + new
//! content so the caller can run the shadow post-processing
//! ([`ClientNode::edit_finished`](crate::ClientNode::edit_finished)).

use shadow_vfs::{CanonicalName, Vfs, VfsError};

/// Anything that can transform a file's content — the "conventional editor
/// of the user's choice".
pub trait Editor {
    /// Transforms the current content into the edited content.
    fn edit(&mut self, content: Vec<u8>) -> Vec<u8>;
}

/// An [`Editor`] built from a closure — handy for tests and scripted
/// workloads.
///
/// # Example
///
/// ```
/// use shadow_client::{Editor, FnEditor};
///
/// let mut editor = FnEditor::new(|mut c: Vec<u8>| {
///     c.extend_from_slice(b"appended\n");
///     c
/// });
/// assert_eq!(editor.edit(b"x\n".to_vec()), b"x\nappended\n");
/// ```
pub struct FnEditor<F>(F);

impl<F: FnMut(Vec<u8>) -> Vec<u8>> FnEditor<F> {
    /// Wraps the closure.
    pub fn new(f: F) -> Self {
        FnEditor(f)
    }
}

impl<F: FnMut(Vec<u8>) -> Vec<u8>> Editor for FnEditor<F> {
    fn edit(&mut self, content: Vec<u8>) -> Vec<u8> {
        (self.0)(content)
    }
}

impl std::fmt::Debug for FnEditor<()> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnEditor")
    }
}

/// A deterministic scripted editor: a sequence of line-editing commands in
/// the spirit of `ed`/`sed`, applied in order. Useful for workloads,
/// examples and tests that need realistic, reproducible editing sessions.
///
/// # Example
///
/// ```
/// use shadow_client::{Editor, ScriptedEditor};
///
/// let mut editor = ScriptedEditor::new()
///     .substitute("speed = 10", "speed = 25")
///     .delete_matching("# TODO")
///     .append_line("# reviewed");
/// let out = editor.edit(b"speed = 10\n# TODO tune\n".to_vec());
/// assert_eq!(out, b"speed = 25\n# reviewed\n");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScriptedEditor {
    commands: Vec<EditorCommand>,
}

/// One command of a [`ScriptedEditor`] session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditorCommand {
    /// Replace every occurrence of `find` with `replace` (all lines).
    Substitute {
        /// Text to find.
        find: String,
        /// Replacement text.
        replace: String,
    },
    /// Delete every line containing the pattern.
    DeleteMatching(String),
    /// Append one line at the end of the file.
    AppendLine(String),
    /// Insert one line before 1-based line `line` (clamped to the end).
    InsertLine {
        /// 1-based insertion position.
        line: usize,
        /// The line's text.
        text: String,
    },
}

impl ScriptedEditor {
    /// An editor session with no commands yet.
    pub fn new() -> Self {
        ScriptedEditor::default()
    }

    /// Adds a substitute command.
    #[must_use]
    pub fn substitute(mut self, find: impl Into<String>, replace: impl Into<String>) -> Self {
        self.commands.push(EditorCommand::Substitute {
            find: find.into(),
            replace: replace.into(),
        });
        self
    }

    /// Adds a delete-matching-lines command.
    #[must_use]
    pub fn delete_matching(mut self, pattern: impl Into<String>) -> Self {
        self.commands
            .push(EditorCommand::DeleteMatching(pattern.into()));
        self
    }

    /// Adds an append-line command.
    #[must_use]
    pub fn append_line(mut self, text: impl Into<String>) -> Self {
        self.commands.push(EditorCommand::AppendLine(text.into()));
        self
    }

    /// Adds an insert-line command.
    #[must_use]
    pub fn insert_line(mut self, line: usize, text: impl Into<String>) -> Self {
        self.commands.push(EditorCommand::InsertLine {
            line,
            text: text.into(),
        });
        self
    }

    /// The commands in this session.
    pub fn commands(&self) -> &[EditorCommand] {
        &self.commands
    }
}

impl Editor for ScriptedEditor {
    fn edit(&mut self, content: Vec<u8>) -> Vec<u8> {
        // Work line-oriented over lossy UTF-8 (scripted editing is a text
        // workflow; binary files should use a different Editor).
        let text = String::from_utf8_lossy(&content).into_owned();
        let had_trailing_newline = text.ends_with('\n') || text.is_empty();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for command in &self.commands {
            match command {
                EditorCommand::Substitute { find, replace } => {
                    if !find.is_empty() {
                        for line in &mut lines {
                            *line = line.replace(find.as_str(), replace);
                        }
                    }
                }
                EditorCommand::DeleteMatching(pattern) => {
                    lines.retain(|l| !l.contains(pattern.as_str()));
                }
                EditorCommand::AppendLine(text) => lines.push(text.clone()),
                EditorCommand::InsertLine { line, text } => {
                    let at = line.saturating_sub(1).min(lines.len());
                    lines.insert(at, text.clone());
                }
            }
        }
        let mut out = lines.join("\n");
        if (had_trailing_newline || !self.commands.is_empty()) && !out.is_empty() {
            out.push('\n');
        }
        out.into_bytes()
    }
}

/// The result of one shadow editing session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditOutcome {
    /// The file's canonical identity (resolved through aliases/mounts).
    pub name: CanonicalName,
    /// The content after the session.
    pub content: Vec<u8>,
    /// Whether the session changed the file at all.
    pub changed: bool,
}

/// The editor wrapper: read → edit → write → report.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShadowEditor;

impl ShadowEditor {
    /// Runs one editing session on `host:path` within `vfs`.
    ///
    /// A missing file starts from empty content, like editing a new file.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors (bad paths, directories, loops).
    pub fn edit_file(
        vfs: &mut Vfs,
        host: &str,
        path: &str,
        editor: &mut dyn Editor,
    ) -> Result<EditOutcome, VfsError> {
        let before = match vfs.read_file(host, path) {
            Ok(content) => content,
            Err(VfsError::NotFound { .. }) => Vec::new(),
            Err(e) => return Err(e),
        };
        let after = editor.edit(before.clone());
        let changed = after != before;
        let name = vfs.write_file(host, path, after.clone())?;
        Ok(EditOutcome {
            name,
            content: after,
            changed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_proto::DomainId;

    fn vfs() -> Vfs {
        let mut v = Vfs::new(DomainId::new(1));
        v.add_host("ws").unwrap();
        v
    }

    #[test]
    fn editing_existing_file_updates_content() {
        let mut v = vfs();
        v.write_file("ws", "/f", b"one\n".to_vec()).unwrap();
        let mut ed = FnEditor::new(|mut c: Vec<u8>| {
            c.extend_from_slice(b"two\n");
            c
        });
        let out = ShadowEditor::edit_file(&mut v, "ws", "/f", &mut ed).unwrap();
        assert!(out.changed);
        assert_eq!(out.content, b"one\ntwo\n");
        assert_eq!(v.read_file("ws", "/f").unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn editing_new_file_starts_empty() {
        let mut v = vfs();
        let mut ed = FnEditor::new(|_| b"fresh\n".to_vec());
        let out = ShadowEditor::edit_file(&mut v, "ws", "/new", &mut ed).unwrap();
        assert!(out.changed);
        assert_eq!(v.read_file("ws", "/new").unwrap(), b"fresh\n");
    }

    #[test]
    fn no_change_is_reported() {
        let mut v = vfs();
        v.write_file("ws", "/f", b"same\n".to_vec()).unwrap();
        let mut ed = FnEditor::new(|c| c);
        let out = ShadowEditor::edit_file(&mut v, "ws", "/f", &mut ed).unwrap();
        assert!(!out.changed);
    }

    #[test]
    fn canonical_name_resolves_aliases() {
        let mut v = vfs();
        v.write_file("ws", "/real", b"x\n".to_vec()).unwrap();
        v.symlink("ws", "/alias", "/real").unwrap();
        let mut ed = FnEditor::new(|_| b"y\n".to_vec());
        let out = ShadowEditor::edit_file(&mut v, "ws", "/alias", &mut ed).unwrap();
        assert_eq!(out.name.path.to_string(), "/real");
        assert_eq!(v.read_file("ws", "/real").unwrap(), b"y\n");
    }

    #[test]
    fn scripted_editor_substitutes_and_deletes() {
        let mut ed = ScriptedEditor::new()
            .substitute("alpha", "ALPHA")
            .delete_matching("drop me");
        let out = ed.edit(b"alpha one\ndrop me please\nalpha two\n".to_vec());
        assert_eq!(out, b"ALPHA one\nALPHA two\n");
    }

    #[test]
    fn scripted_editor_insert_positions_clamp() {
        let mut ed = ScriptedEditor::new()
            .insert_line(1, "first")
            .insert_line(99, "last");
        let out = ed.edit(b"middle\n".to_vec());
        assert_eq!(out, b"first\nmiddle\nlast\n");
    }

    #[test]
    fn scripted_editor_empty_script_is_identity() {
        let mut ed = ScriptedEditor::new();
        assert_eq!(ed.edit(b"keep\nme\n".to_vec()), b"keep\nme\n");
        assert_eq!(ed.edit(Vec::new()), b"");
    }

    #[test]
    fn scripted_editor_with_shadow_editor_wrapper() {
        let mut v = vfs();
        v.write_file("ws", "/cfg", b"retries = 1\n# fixme\n".to_vec())
            .unwrap();
        let mut ed = ScriptedEditor::new()
            .substitute("retries = 1", "retries = 5")
            .delete_matching("# fixme");
        let out = ShadowEditor::edit_file(&mut v, "ws", "/cfg", &mut ed).unwrap();
        assert!(out.changed);
        assert_eq!(v.read_file("ws", "/cfg").unwrap(), b"retries = 5\n");
    }

    #[test]
    fn errors_propagate() {
        let mut v = vfs();
        v.mkdir_p("ws", "/dir").unwrap();
        let mut ed = FnEditor::new(|c| c);
        assert!(ShadowEditor::edit_file(&mut v, "ws", "/dir", &mut ed).is_err());
    }
}
