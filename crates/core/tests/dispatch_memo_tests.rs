//! Dispatch-memo invalidation: the engine memoises each intercepted
//! call's resolution (the `pre` contracts that apply, the annotation, the
//! cache key) per (receiver, owner, class_level, method) under a
//! (type-table, pre, hierarchy) generation stamp. Every case warms the
//! memo first — a repeat call resolves nothing afresh — then changes the
//! world and checks that the very next call sees the change. The suite
//! runs on whichever tier `HB_EXEC_TIER` selects.

use hummingbird::{Config, DiagCode, ErrorKind, Hummingbird};

/// Runs `call` twice; the second run must be answered from the memo.
fn warm(hb: &mut Hummingbird, call: &str) {
    hb.eval(call).unwrap();
    let before = hb.stats().dispatch_resolutions;
    hb.eval(call).unwrap();
    assert_eq!(
        hb.stats().dispatch_resolutions,
        before,
        "a repeat of {call:?} must resolve nothing afresh"
    );
}

fn last_code(hb: &Hummingbird) -> DiagCode {
    hb.diagnostics().last().expect("a diagnostic").code
}

#[test]
fn pre_added_on_an_ancestor_module_runs_on_the_next_call() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
module Audited
end
class Base
  include Audited
  type :m, "(Fixnum) -> Fixnum", { "check" => true }
  def m(x)
    x
  end
end
class Leaf < Base
end
class Runner
  type :run, "() -> Fixnum", { "check" => true }
  def run
    Leaf.new.m(1)
  end
end
"#,
    )
    .unwrap();
    warm(&mut hb, "Runner.new.run");
    hb.eval("pre Audited, \"m\" do |x|\n  false\nend").unwrap();
    let err = hb.eval("Runner.new.run").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame, "{err}");
    assert_eq!(last_code(&hb), DiagCode::PreconditionFailed);
}

#[test]
fn include_of_a_shadowing_annotation_resolves_the_new_annotation() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Shape
  type :area, "() -> Fixnum", { "check" => true }
  def area
    1
  end
end
module Labelled
  type :area, "() -> String", { "check" => true }
end
class Square < Shape
  def area
    4
  end
end
"#,
    )
    .unwrap();
    warm(&mut hb, "Square.new.area");
    // Square's chain becomes [Square, Labelled, Shape, ...]: the module's
    // annotation now shadows Shape's, and the body (a Fixnum) violates it.
    hb.eval("class Square\n  include Labelled\nend").unwrap();
    let err = hb.eval("Square.new.area").unwrap_err();
    assert_eq!(err.kind, ErrorKind::TypeBlame, "{err}");
    // The other receiver keeps Shape's annotation.
    hb.eval("Shape.new.area").unwrap();
}

#[test]
fn replaced_type_changes_the_dynamic_argument_check() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Account
  type :deposit, "(Fixnum) -> Fixnum"
  def deposit(x)
    x
  end
end
"#,
    )
    .unwrap();
    warm(&mut hb, "Account.new.deposit(1)");
    hb.eval("class Account\n  type :deposit, \"(String) -> String\", { \"replace\" => true }\nend")
        .unwrap();
    let err = hb.eval("Account.new.deposit(1)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame, "{err}");
    assert_eq!(last_code(&hb), DiagCode::DynamicArgCheck);
    hb.eval("Account.new.deposit(\"ok\")").unwrap();
}

#[test]
fn method_defined_later_on_a_subclass_gets_the_right_pres() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Parent
  def greet(x)
    x
  end
end
class Child < Parent
end
pre Parent, "greet" do |x|
  x != 13
end
"#,
    )
    .unwrap();
    warm(&mut hb, "Child.new.greet(1)");
    let hierarchy = hb.interp.registry.hierarchy_generation();
    let resolutions = hb.stats().dispatch_resolutions;
    // Re-opening Child to define `greet` changes the dispatch's owner,
    // not the class hierarchy.
    hb.eval("class Child\n  def greet(x)\n    x * 2\n  end\nend")
        .unwrap();
    assert_eq!(hb.interp.registry.hierarchy_generation(), hierarchy);
    let v = hb.eval("Child.new.greet(2)").unwrap();
    assert_eq!(format!("{v:?}"), "4", "the new owner's body runs");
    assert!(
        hb.stats().dispatch_resolutions > resolutions,
        "the new owner is a new memo key"
    );
    let err = hb.eval("Child.new.greet(13)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame, "{err}");
    assert_eq!(last_code(&hb), DiagCode::PreconditionFailed);
}

#[test]
fn pres_still_run_after_the_engine_is_disabled() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Gate
  type :open, "(Fixnum) -> Fixnum", { "check" => true }
  def open(x)
    x
  end
end
pre Gate, "open" do |x|
  x > 0
end
"#,
    )
    .unwrap();
    warm(&mut hb, "Gate.new.open(1)");
    let intercepted = hb.stats().intercepted_calls;
    hb.engine.set_config(Config {
        enabled: false,
        ..hb.engine.config()
    });
    let err = hb.eval("Gate.new.open(-1)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame, "{err}");
    assert_eq!(last_code(&hb), DiagCode::PreconditionFailed);
    hb.eval("Gate.new.open(2)").unwrap();
    assert_eq!(
        hb.stats().intercepted_calls,
        intercepted,
        "a disabled engine checks nothing"
    );
}

#[test]
fn a_rename_that_brings_a_pre_onto_a_warm_chain_runs_it() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Point
end
pre Point, "norm" do |y|
  y != 13
end
type Struct, :norm, "(Fixnum) -> Fixnum", { "check" => true }
type Struct, :drive, "(Fixnum) -> Fixnum", { "check" => true }
$anon = Struct.new(:x)
$anon.class_eval do
  def norm(y)
    y
  end
  def drive(y)
    norm(y)
  end
end
"#,
    )
    .unwrap();
    // Point's contract is not on the anonymous class's chain yet. On
    // bytecode, `norm` called from the checked `drive` is a candidate for
    // the fast prologue, which skips the hook and with it every pre.
    warm(&mut hb, "$anon.new(1).drive(13)");
    // Naming the class renames it: only the hierarchy generation moves,
    // which flushes no patch, and Point's contract now applies.
    hb.eval("Point = $anon").unwrap();
    let err = hb.eval("$anon.new(1).drive(13)").unwrap_err();
    assert_eq!(err.kind, ErrorKind::ContractBlame, "{err}");
    assert_eq!(last_code(&hb), DiagCode::PreconditionFailed);
    hb.eval("$anon.new(1).drive(2)").unwrap();
}

#[test]
fn a_flags_only_type_call_forces_the_dynamic_argument_check() {
    let mut hb = Hummingbird::builder().build();
    hb.eval(
        r#"
class Box
  type :m, "(Fixnum) -> Fixnum", { "check" => true }
  def m(x)
    x
  end
  type :drive, "() -> Fixnum", { "check" => true }
  def drive
    m(1)
  end
end
"#,
    )
    .unwrap();
    let per_call = |hb: &mut Hummingbird| {
        let before = hb.stats().dyn_arg_checks;
        hb.eval("Box.new.drive").unwrap();
        hb.stats().dyn_arg_checks - before
    };
    warm(&mut hb, "Box.new.drive");
    // Only `drive`, called from unchecked top-level code, is checked
    // dynamically: its checked body calls `m` with statically known types.
    assert_eq!(per_call(&mut hb), 1);
    // Re-registering the same arm with "dyn" changes no signature, only
    // the flags — and "dyn" forces `m`'s argument check even from the
    // checked caller, on every tier.
    hb.eval(r#"type Box, :m, "(Fixnum) -> Fixnum", { "check" => true, "dyn" => true }"#)
        .unwrap();
    assert_eq!(per_call(&mut hb), 2);
    assert_eq!(per_call(&mut hb), 2);
}
