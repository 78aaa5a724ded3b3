//! `qsim` — noisy quantum-circuit simulation with Monte-Carlo trial
//! reordering, on the command line.

use std::io::{ErrorKind, StdoutLock, Write};
use std::process::ExitCode;

use noisy_qsim_cli::{execute, Options};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = Stdout { inner: std::io::stdout().lock(), closed: false };
    match execute(&opts, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops reading (`qsim run … | head -1`) is not an
        // error; the first failed write ended the command.
        Err(_) if stdout.closed => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qsim: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Standard output, remembering whether its reader has gone.
struct Stdout {
    inner: StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    fn note<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        self.closed |= result.as_ref().is_err_and(|e| e.kind() == ErrorKind::BrokenPipe);
        result
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}
