//! The RDL builtins: `type`, `var_type`/`field_type`, `pre`, `rdl_cast`.
//!
//! These execute at run time and mutate the live type table — the central
//! mechanism of the paper ("user-provided type annotations actually execute
//! at run-time", §1).

use crate::conform::value_conforms;
use crate::state::{AnnotationSource, CheckPolicy, MethodKey, PreHook, RdlState};
use hb_interp::{ErrorKind, Flow, HbError, Interp, Value};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, Span, TypeDiagnostic};
use hb_types::parse_method_type;
use std::rc::Rc;

/// Installs RDL into an interpreter: stores the state extension and
/// registers the annotation builtins. `pre` contracts run at dispatch
/// through [`crate::pre::run_pres`], which the embedding's call hook
/// drives.
pub fn install(interp: &mut Interp) -> Rc<RdlState> {
    let state = Rc::new(RdlState::new());
    interp.set_extension(state.clone());

    let st = state.clone();
    let object = interp.registry.object();
    interp.define_builtin(
        object,
        "type",
        false,
        Rc::new(move |i, recv, args, _b| type_builtin(&st, i, recv, args)),
    );
    for name in ["var_type", "field_type"] {
        let st = state.clone();
        interp.define_builtin(
            object,
            name,
            false,
            Rc::new(move |i, recv, args, _b| var_type_builtin(&st, i, recv, args)),
        );
    }
    let st = state.clone();
    interp.define_builtin(
        object,
        "pre",
        false,
        Rc::new(move |i, recv, args, b| pre_builtin(&st, i, recv, args, b)),
    );
    let st = state.clone();
    interp.define_builtin(
        object,
        "rdl_cast",
        false,
        Rc::new(move |i, recv, args, _b| rdl_cast_builtin(&st, i, recv, args)),
    );
    let st = state.clone();
    interp.define_builtin(
        object,
        "check_policy",
        false,
        Rc::new(move |i, recv, args, _b| check_policy_builtin(&st, i, recv, args)),
    );
    state
}

fn err(kind: ErrorKind, msg: impl Into<String>) -> Flow {
    Flow::Error(HbError::new(kind, msg, Span::dummy()))
}

fn name_of(v: &Value, what: &str) -> Result<String, Flow> {
    match v {
        Value::Str(s) => Ok(s.to_string()),
        Value::Sym(s) => Ok(s.to_string()),
        other => Err(err(
            ErrorKind::ArgumentError,
            format!("{what}: expected method name (String/Symbol), got {other:?}"),
        )),
    }
}

/// Splits the target class and remaining args: an explicit leading class
/// argument wins; otherwise the receiver must be a class (annotation inside
/// a class body or a pre-hook with `self` rebound to the model class).
fn target_class(
    interp: &Interp,
    recv: &Value,
    args: &[Value],
    what: &str,
) -> Result<(String, usize), Flow> {
    if let Some(Value::Class(c)) = args.first() {
        return Ok((interp.registry.name(*c).to_string(), 1));
    }
    match recv {
        Value::Class(c) => Ok((interp.registry.name(*c).to_string(), 0)),
        // In instance context (e.g. a pre hook on an instance method, Fig.
        // 2), annotations target the instance's class.
        Value::Obj(o) => Ok((interp.registry.name(o.class).to_string(), 0)),
        _ => Err(err(
            ErrorKind::ArgumentError,
            format!("{what}: no target class (call inside a class or pass the class first)"),
        )),
    }
}

/// Reads `check`/`dyn`/`replace` flags from a trailing options hash.
fn read_opts(opts: Option<&Value>) -> (bool, bool, bool) {
    let mut check = false;
    let mut dynamic = false;
    let mut replace = false;
    if let Some(Value::Hash(h)) = opts {
        for (k, v) in h.borrow().iter() {
            let key = match k {
                Value::Str(s) => s.to_string(),
                Value::Sym(s) => s.to_string(),
                _ => continue,
            };
            let val = v.truthy();
            match key.as_str() {
                "check" | "typecheck" => check = val,
                "dyn" | "dynamic_check" => dynamic = val,
                "replace" => replace = val,
                _ => {}
            }
        }
    }
    (check, dynamic, replace)
}

fn type_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    let (class, skip) = target_class(interp, &recv, &args, "type")?;
    let rest = &args[skip..];
    if rest.len() < 2 {
        return Err(err(
            ErrorKind::ArgumentError,
            "type: expected method name and type string",
        ));
    }
    let raw_name = name_of(&rest[0], "type")?;
    let type_str = match &rest[1] {
        Value::Str(s) => s.to_string(),
        other => {
            return Err(err(
                ErrorKind::ArgumentError,
                format!("type: expected type string, got {other:?}"),
            ))
        }
    };
    let (check, dynamic, replace) = read_opts(rest.get(2));
    let (class_level, method) = match raw_name.strip_prefix("self.") {
        Some(m) => (true, m.to_string()),
        None => (false, raw_name),
    };
    let mt = parse_method_type(&type_str).map_err(|e| {
        err(
            ErrorKind::ArgumentError,
            format!("type {class}#{method}: {e}"),
        )
    })?;
    let source = if interp.in_dynamic_context() {
        AnnotationSource::Dynamic
    } else {
        AnnotationSource::Static
    };
    let key = MethodKey {
        class: hb_intern::Sym::intern(&class),
        class_level,
        method: hb_intern::Sym::intern(&method),
    };
    // The builtin's call site *is* the annotation's registration site —
    // the span structured blame points at.
    let span = interp.current_builtin_span();
    state.add_type_at(key, mt, check, dynamic, source, replace, span);
    Ok(Value::Nil)
}

fn var_type_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    let (class, skip) = target_class(interp, &recv, &args, "var_type")?;
    let rest = &args[skip..];
    if rest.len() < 2 {
        return Err(err(
            ErrorKind::ArgumentError,
            "var_type: expected variable name and type string",
        ));
    }
    let var = name_of(&rest[0], "var_type")?;
    let type_str = match &rest[1] {
        Value::Str(s) => s.to_string(),
        other => {
            return Err(err(
                ErrorKind::ArgumentError,
                format!("var_type: expected type string, got {other:?}"),
            ))
        }
    };
    let ty = hb_types::parse_type(&type_str)
        .map_err(|e| err(ErrorKind::ArgumentError, format!("var_type {var}: {e}")))?;
    let span = interp.current_builtin_span();
    if let Some(cvar) = var.strip_prefix("@@") {
        state.set_cvar_type_at(&class, cvar, ty, span);
    } else if let Some(ivar) = var.strip_prefix('@') {
        state.set_ivar_type_at(&class, ivar, ty, span);
    } else if let Some(gvar) = var.strip_prefix('$') {
        state.set_gvar_type_at(gvar, ty, span);
    } else {
        state.set_ivar_type_at(&class, &var, ty, span);
    }
    Ok(Value::Nil)
}

fn pre_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
    block: Option<Value>,
) -> Result<Value, Flow> {
    let (class, skip) = target_class(interp, &recv, &args, "pre")?;
    let rest = &args[skip..];
    if rest.is_empty() {
        return Err(err(ErrorKind::ArgumentError, "pre: expected method name"));
    }
    let raw_name = name_of(&rest[0], "pre")?;
    let (class_level, method) = match raw_name.strip_prefix("self.") {
        Some(m) => (true, m.to_string()),
        None => (false, raw_name),
    };
    let proc_val = match block {
        Some(Value::Proc(p)) => p,
        _ => return Err(err(ErrorKind::ArgumentError, "pre: no block given")),
    };
    let span = interp.current_builtin_span();
    state.add_pre(
        MethodKey {
            class: hb_intern::Sym::intern(&class),
            class_level,
            method: hb_intern::Sym::intern(&method),
        },
        PreHook { proc_val, span },
    );
    Ok(Value::Nil)
}

/// The `check_policy` builtin — the RubyLite surface of [`CheckPolicy`]:
///
/// ```text
/// check_policy "shadow"                 # top level: global policy
/// class Talk
///   check_policy "shadow"               # class body: policy for Talk
///   check_policy :title_line, "shadow"  # method policy (self.m for class-level)
/// end
/// check_policy Talk, "off"              # explicit class, anywhere
/// check_policy Talk, :title_line, "off" # explicit class + method
/// ```
///
/// Policy names (`enforce` / `shadow` / `off`) may be strings or symbols.
fn check_policy_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    // An explicit leading class argument wins; a class receiver (class
    // body) is next; otherwise the call is global scope.
    let (explicit_class, skip) = match args.first() {
        Some(Value::Class(c)) => (Some(interp.registry.name(*c).to_string()), 1),
        _ => match &recv {
            Value::Class(c) => (Some(interp.registry.name(*c).to_string()), 0),
            _ => (None, 0),
        },
    };
    let rest = &args[skip..];
    let parse_policy = |v: &Value| -> Result<CheckPolicy, Flow> {
        let name = name_of(v, "check_policy")?;
        CheckPolicy::parse(&name).ok_or_else(|| {
            err(
                ErrorKind::ArgumentError,
                format!("check_policy: unknown policy {name:?} (enforce/shadow/off)"),
            )
        })
    };
    match rest {
        [policy] => {
            let policy = parse_policy(policy)?;
            match explicit_class {
                Some(class) => state.set_class_policy(hb_intern::Sym::intern(&class), policy),
                None => state.set_global_policy(policy),
            }
        }
        [method, policy] => {
            let Some(class) = explicit_class else {
                return Err(err(
                    ErrorKind::ArgumentError,
                    "check_policy: no target class for a method policy \
                     (call inside a class or pass the class first)",
                ));
            };
            let raw_name = name_of(method, "check_policy")?;
            let policy = parse_policy(policy)?;
            let (class_level, method) = match raw_name.strip_prefix("self.") {
                Some(m) => (true, m.to_string()),
                None => (false, raw_name),
            };
            state.set_method_policy(
                MethodKey {
                    class: hb_intern::Sym::intern(&class),
                    class_level,
                    method: hb_intern::Sym::intern(&method),
                },
                policy,
            );
        }
        _ => {
            return Err(err(
                ErrorKind::ArgumentError,
                "check_policy: expected [class,] [method,] policy",
            ))
        }
    }
    Ok(Value::Nil)
}

fn rdl_cast_builtin(
    state: &RdlState,
    interp: &mut Interp,
    recv: Value,
    args: Vec<Value>,
) -> Result<Value, Flow> {
    let cast_span = interp.current_builtin_span();
    let type_str = match args.first() {
        Some(Value::Str(s)) => s.to_string(),
        other => {
            return Err(err(
                ErrorKind::ArgumentError,
                format!("rdl_cast: expected type string, got {other:?}"),
            ))
        }
    };
    let ty = hb_types::parse_type(&type_str)
        .map_err(|e| err(ErrorKind::ArgumentError, format!("rdl_cast: {e}")))?;
    state.inner.borrow_mut().casts_run += 1;
    if !value_conforms(interp, &recv, &ty) {
        // The cast itself is the blame target: the program asserted a type
        // the value does not have (paper §4 "Type Casts").
        let message = format!(
            "rdl_cast: value of class {} does not conform to {ty}",
            interp.class_name_of(&recv)
        );
        let diag = TypeDiagnostic::error(
            DiagCode::CastFailure,
            message.clone(),
            cast_span,
            BlameTarget::Cast,
        )
        .with_label(DiagLabel::new(
            LabelRole::CastSite,
            format!("cast to {ty} asserted here"),
            cast_span,
        ));
        state.record_diagnostic(diag.clone());
        return Err(Flow::Error(HbError::with_diagnostic(
            ErrorKind::ContractBlame,
            message,
            cast_span,
            diag,
        )));
    }
    Ok(recv)
}
