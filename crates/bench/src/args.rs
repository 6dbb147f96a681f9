//! The one argument parser of `bin/all`, `bin/perf_gate` and
//! `bin/svagc_cli`: a table of flags, checked in full before anything
//! runs.
//!
//! Each binary, and each `svagc_cli` subcommand, lists its flags as
//! `(name, kind)` pairs. [`parse`] walks the arguments once: an unknown or
//! repeated flag, a flag without its value, or a value that does not parse
//! or lies outside its kind's range is an error. The binaries print that
//! error with their usage text and exit with status 2.

use std::str::FromStr;

/// One table entry: the flag as typed (`"--steps"`) and what it takes.
pub type Flag = (&'static str, Kind);

/// What a flag takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// No value: the flag is present or absent.
    Switch,
    /// An unsigned integer in `[min, max]`.
    Int(u64, u64),
    /// A finite number in `[0, 1]`: a probability or a fraction.
    Unit,
    /// A finite number `> 0`.
    Positive,
    /// A finite number `>= 0`.
    NonNegative,
    /// Any text: a path, or a name the binary resolves itself.
    Text,
}

/// An unsigned integer `>= min`.
pub const fn at_least(min: u64) -> Kind {
    Kind::Int(min, u64::MAX)
}

impl Kind {
    /// `Ok` if `raw` parses as this kind and lies in its range; else what
    /// a valid value looks like.
    fn check(self, raw: &str) -> Result<(), String> {
        let num = raw.parse::<f64>().ok().filter(|x| x.is_finite());
        let (ok, wants) = match self {
            Kind::Switch | Kind::Text => return Ok(()),
            Kind::Int(min, u64::MAX) => (
                raw.parse().is_ok_and(|n: u64| n >= min),
                format!("an integer >= {min}"),
            ),
            Kind::Int(min, max) => (
                raw.parse().is_ok_and(|n: u64| (min..=max).contains(&n)),
                format!("an integer in [{min}, {max}]"),
            ),
            Kind::Unit => (
                num.is_some_and(|x| (0.0..=1.0).contains(&x)),
                "a number in [0, 1]".into(),
            ),
            Kind::Positive => (num.is_some_and(|x| x > 0.0), "a finite number > 0".into()),
            Kind::NonNegative => (num.is_some_and(|x| x >= 0.0), "a finite number >= 0".into()),
        };
        ok.then_some(()).ok_or(wants)
    }
}

/// The checked arguments of one command line.
#[derive(Debug)]
pub struct Parsed<'a> {
    table: &'a [Flag],
    /// The raw value of `table[i]` (`""` for a switch), if it was given.
    values: Vec<Option<&'a str>>,
    /// The arguments that are not flags, in order.
    pub positional: Vec<&'a str>,
}

/// Check `args` (program name excluded) against `table`. Arguments that
/// do not start with `-` are positional, and an error unless
/// `positional` allows them.
pub fn parse<'a>(
    table: &'a [Flag],
    args: &'a [String],
    positional: bool,
) -> Result<Parsed<'a>, String> {
    let mut parsed = Parsed {
        table,
        values: vec![None; table.len()],
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(i) = table.iter().position(|(name, _)| name == arg) else {
            if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            }
            if !positional {
                return Err(format!("unexpected argument {arg:?}"));
            }
            parsed.positional.push(arg);
            continue;
        };
        let (name, kind) = table[i];
        let raw = match kind {
            Kind::Switch => "",
            _ => it.next().ok_or_else(|| format!("{name} needs a value"))?,
        };
        kind.check(raw)
            .map_err(|wants| format!("{name} {raw:?} is not {wants}"))?;
        if parsed.values[i].replace(raw).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    Ok(parsed)
}

impl<'a> Parsed<'a> {
    /// The raw value of flag `name`, if given; `Some("")` for a switch.
    pub fn text(&self, name: &str) -> Option<&'a str> {
        let i = self.table.iter().position(|(n, _)| *n == name);
        self.values[i.unwrap_or_else(|| panic!("{name} is not in this flag table"))]
    }

    /// Was flag `name` given?
    pub fn on(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of flag `name` as a `T`, if given. The table has already
    /// checked the value, so `T` must be a type its kind describes.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let parse = |s: &str| {
            s.parse()
                .unwrap_or_else(|_| panic!("{name} {s:?} is not a {}", std::any::type_name::<T>()))
        };
        self.text(name).map(parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        ("--on", Kind::Switch),
        ("--n", at_least(1)),
        ("--small", Kind::Int(0, 9)),
        ("--p", Kind::Unit),
        ("--pos", Kind::Positive),
        ("--nonneg", Kind::NonNegative),
        ("--name", Kind::Text),
    ];

    fn run(words: &str, positional: bool) -> Result<Vec<String>, String> {
        let args: Vec<String> = words.split_whitespace().map(String::from).collect();
        let p = parse(TABLE, &args, positional)?;
        Ok(vec![
            format!("{}", p.on("--on")),
            format!("{:?}", p.get::<u64>("--n")),
            format!("{:?}", p.get::<u8>("--small")),
            format!("{:?}", p.get::<f64>("--p")),
            format!("{:?}", p.get::<f64>("--pos")),
            format!("{:?}", p.get::<f64>("--nonneg")),
            format!("{:?}", p.text("--name")),
            p.positional.join(","),
        ])
    }

    #[test]
    fn every_kind_parses_and_absent_flags_read_as_none() {
        assert_eq!(
            run("", false).unwrap(),
            ["false", "None", "None", "None", "None", "None", "None", ""]
        );
        assert_eq!(
            run(
                "a --name x --on --n 3 --small 9 --p 1 b --pos 1e-3 --nonneg 0",
                true
            )
            .unwrap(),
            [
                "true",
                "Some(3)",
                "Some(9)",
                "Some(1.0)",
                "Some(0.001)",
                "Some(0.0)",
                "Some(\"x\")",
                "a,b"
            ]
        );
        // A text value is taken as is, even when it looks like a flag.
        assert_eq!(run("--name --on", false).unwrap()[..2], ["false", "None"]);
    }

    #[test]
    fn malformed_arguments_are_errors() {
        for (words, want) in [
            ("--bogus", "unknown flag \"--bogus\""),
            ("--bogus 1", "unknown flag \"--bogus\""),
            ("stray", "unexpected argument \"stray\""),
            ("--n", "--n needs a value"),
            ("--on --on", "--on given twice"),
            ("--n 2 --n 3", "--n given twice"),
            ("--n 5x", "--n \"5x\" is not an integer >= 1"),
            ("--n 0", "--n \"0\" is not an integer >= 1"),
            ("--n -1", "--n \"-1\" is not an integer >= 1"),
            ("--small 10", "--small \"10\" is not an integer in [0, 9]"),
            ("--p 1.5", "--p \"1.5\" is not a number in [0, 1]"),
            ("--p -0.1", "--p \"-0.1\" is not a number in [0, 1]"),
            ("--p NaN", "--p \"NaN\" is not a number in [0, 1]"),
            ("--pos 0", "--pos \"0\" is not a finite number > 0"),
            ("--pos -3", "--pos \"-3\" is not a finite number > 0"),
            ("--pos inf", "--pos \"inf\" is not a finite number > 0"),
            ("--nonneg -5", "--nonneg \"-5\" is not a finite number >= 0"),
            (
                "--nonneg 250ms",
                "--nonneg \"250ms\" is not a finite number >= 0",
            ),
        ] {
            assert_eq!(run(words, false).unwrap_err(), want, "{words}");
        }
        assert_eq!(run("-5", true).unwrap_err(), "unknown flag \"-5\"");
    }

    #[test]
    #[should_panic(expected = "--missing is not in this flag table")]
    fn reading_a_flag_outside_the_table_is_a_bug() {
        parse(TABLE, &[], false).unwrap().on("--missing");
    }

    #[test]
    #[should_panic(expected = "--p \"0.5\" is not a u64")]
    fn reading_a_value_as_a_type_its_kind_does_not_describe_is_a_bug() {
        let args = ["--p".to_string(), "0.5".to_string()];
        parse(TABLE, &args, false).unwrap().get::<u64>("--p");
    }
}
