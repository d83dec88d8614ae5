//! `shadow-editor` — the paper's shadow editor wrapper (§6.2), CLI form.
//!
//! "Shadow Editor encapsulates a conventional editor of the user's choice
//! (specified through an environment variable). It does not modify an
//! existing editor and the user's view of the editor remains unchanged. It
//! contains a postprocessor responsible for carrying out tasks related to
//! shadow processing at the end of an editing session."
//!
//! This wrapper launches `$SHADOW_EDITOR` (falling back to `$EDITOR`, then
//! `vi`) on a real file, and when the editor exits it runs the shadow
//! post-processing: the new content is versioned into the local state
//! directory, so the *next* `shadow-submit` answers the server's update
//! request with a delta computed against exactly the version the server
//! holds.
//!
//! ```text
//! shadow-editor FILE [--state-dir DIR] [--host NAME] [--domain N]
//!               [--editor CMD]
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use shadow::persist;
use shadow::{ClientConfig, ClientNode, ContentDigest, FileId, FileRef};

fn usage() -> ! {
    eprintln!(
        "usage: shadow-editor FILE [--state-dir DIR] [--host NAME] [--domain N] [--editor CMD]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut state_dir = PathBuf::from(".shadow-state");
    let mut host = std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".to_string());
    let mut domain = 1u64;
    let mut editor = std::env::var("SHADOW_EDITOR")
        .or_else(|_| std::env::var("EDITOR"))
        .unwrap_or_else(|_| "vi".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-dir" => state_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--host" => host = args.next().unwrap_or_else(|| usage()),
            "--domain" => {
                domain = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--editor" => editor = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => file = Some(PathBuf::from(path)),
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    match run(&file, &state_dir, &host, domain, &editor) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shadow-editor: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    file: &Path,
    state_dir: &Path,
    host: &str,
    domain: u64,
    editor: &str,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    // The user's view of the editor remains unchanged: launch it directly
    // on the real file.
    let status = Command::new(editor).arg(file).status()?;
    if !status.success() {
        eprintln!("shadow-editor: editor exited with {status}; skipping shadow processing");
        return Ok(ExitCode::FAILURE);
    }

    // Post-processor: version the result into the shadow environment.
    let mut node = ClientNode::new(ClientConfig::new(host, domain));
    let loaded = persist::load_state(state_dir, &mut node)?;
    if loaded.degraded() {
        eprintln!(
            "shadow-editor: warning: skipped {} corrupt state entr(y/ies) in {}",
            loaded.skipped,
            state_dir.display()
        );
    }
    let canonical = std::fs::canonicalize(file)?;
    let name = format!("{host}:{}", canonical.display());
    let digest = ContentDigest::of(format!("{host}\u{0}{}", canonical.display()).as_bytes());
    let fref = FileRef::new(FileId::new(digest.as_u64()), name.clone());
    let content = std::fs::read(file)?;
    let (version, _) = node.edit_finished(&fref, content);
    persist::save_state(state_dir, &node)?;
    eprintln!(
        "shadow-editor: {name} is now {version} in {}",
        state_dir.display()
    );
    Ok(ExitCode::SUCCESS)
}
