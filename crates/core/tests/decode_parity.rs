//! The schedule decoder's decisions, pinned row by row: for each
//! document, whether it is accepted and what it decodes to (its
//! canonical re-serialisation), or the exact error text. The table was
//! captured from the `Value`-tree decoder that the one-pass reader
//! replaced, and every row reads the same on both except the two
//! non-finite Move coordinates, which the tree decoder accepted into a
//! schedule `schedule_to_json` could not write back.
//!
//! The rows cover keys out of canonical order, duplicate keys (the first
//! wins), escaped keys, whitespace between every token, unknown keys
//! holding nested values, lexer-lenient numbers, the `MAX_DEPTH` edge,
//! JSON errors, and one row for each schema message a single fault
//! reaches.

use qpilot_core::wire::{schedule_from_json, schedule_to_json};

/// A canonical schedule with every stage kind and every Rydberg kind.
const BASE: &str = r#"{"format":"qpilot.schedule/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":[{"kind":"transfer","ops":[[0,0,1,true]]},{"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]},{"kind":"raman","gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]]},{"kind":"rydberg","ops":[[["d",0],["a",0],"cz"],[["a",0],["d",2],["cx",true]],[["d",1],["d",2],["zz",0.7]]]},{"kind":"transfer","ops":[[0,0,1,false]]}]}"#;

/// `BASE` with the first `from` replaced by `to`.
fn rep(from: &str, to: &str) -> String {
    assert!(BASE.contains(from), "{from}");
    BASE.replacen(from, to, 1)
}

/// `BASE`'s header around the given stages.
fn doc(stages: &str) -> String {
    let head = &BASE[..BASE.find("[{").expect("a stage list")];
    format!("{head}[{stages}]}}")
}

/// `doc` with whitespace after every `{`, `}`, `[`, `]`, `,` and `:`
/// (none of which its strings hold) and around the document.
fn spaced(doc: &str) -> String {
    let mut out = String::from(" \n");
    for c in doc.chars() {
        out.push(c);
        if "{}[],:".contains(c) {
            out.push_str(" \n\t\r");
        }
    }
    out + " \n"
}

/// (what the row checks, the document, its decode: the canonical bytes
/// or the error text).
fn rows() -> Vec<(&'static str, String, Result<&'static str, &'static str>)> {
    vec![
        (
            r#"canonical"#,
            BASE.to_string(),
            Ok(BASE),
        ),
        (
            r#"stages before the header"#,
            r#"{"stages":[{"kind":"transfer","ops":[[0,0,1,true]]},{"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]},{"kind":"raman","gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]]},{"kind":"rydberg","ops":[[["d",0],["a",0],"cz"],[["a",0],["d",2],["cx",true]],[["d",1],["d",2],["zz",0.7]]]},{"kind":"transfer","ops":[[0,0,1,false]]}],"aod_cols":2,"aod_rows":2,"num_ancillas":1,"num_data":3,"format":"qpilot.schedule/v1"}"#.to_string(),
            Ok(BASE),
        ),
        (
            r#"payload before kind"#,
            rep(r#"kind":"raman","gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]]"#, r#"gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]],"kind":"raman""#),
            Ok(BASE),
        ),
        (
            r#"ops before kind"#,
            rep(r#"kind":"rydberg","ops":[[["d",0],["a",0],"cz"],[["a",0],["d",2],["cx",true]],[["d",1],["d",2],["zz",0.7]]]"#, r#"x":0,"ops":[[["d",0],["a",0],"cz"],[["a",0],["d",2],["cx",true]],[["d",1],["d",2],["zz",0.7]]],"kind":"rydberg""#),
            Ok(BASE),
        ),
        (
            r#"col_x before row_y"#,
            rep(r#"row_y":[0.5,10],"col_x":[1.85,11.85"#, r#"col_x":[1.85,11.85],"row_y":[0.5,10"#),
            Ok(BASE),
        ),
        (
            r#"col_x, kind, row_y"#,
            rep(r#"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85"#, r#"col_x":[1.85,11.85],"kind":"move","row_y":[0.5,10"#),
            Ok(BASE),
        ),
        (
            r#"row_y, kind, col_x"#,
            rep(r#"kind":"move","row_y":[0.5,10]"#, r#"row_y":[0.5,10],"kind":"move""#),
            Ok(BASE),
        ),
        (
            r#"move payloads before kind"#,
            rep(r#"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]"#, r#"col_x":[1.85,11.85],"row_y":[0.5,10],"kind":"move""#),
            Ok(BASE),
        ),
        (
            r#"duplicate header key, first wins"#,
            rep(r#"ancillas":1,"#, r#"data":"x","num_ancillas":1,"#),
            Ok(BASE),
        ),
        (
            r#"duplicate header key, first is bad"#,
            rep(r#"3,"num_ancil"#, r#""x","num_data":3,"num_ancil"#),
            Err(r#"schedule schema error: missing integer field `num_data`"#),
        ),
        (
            r#"duplicate format, first wins"#,
            rep(r#"num_data":3,"#, r#"format":"v9","num_data":3,"#),
            Ok(BASE),
        ),
        (
            r#"duplicate stages, first wins"#,
            rep(r#"}]}"#, r#"}],"stages":[{"kind":"warp"}]}"#),
            Ok(BASE),
        ),
        (
            r#"duplicate stages, first not an array"#,
            rep(r#"[{"kind":"tr"#, r#"5,"stages":[{"kind":"tr"#),
            Err(r#"schedule schema error: missing `stages` array"#),
        ),
        (
            r#"duplicate kind, first wins"#,
            rep(r#"gates":[["h""#, r#"kind":"warp","gates":[["h""#),
            Ok(BASE),
        ),
        (
            r#"duplicate gates, first wins"#,
            rep(r#"]]},{"kind":"r"#, r#"]],"gates":[["q"]]},{"kind":"r"#),
            Ok(BASE),
        ),
        (
            r#"duplicate gates, first is bad"#,
            rep(r#"h",2],["rz","#, r#"q"]],"gates":[["h",2],["rz","#),
            Err(r#"schedule schema error: unknown gate mnemonic `q`"#),
        ),
        (
            r#"duplicate row_y, first wins"#,
            rep(r#"},{"kind":"r"#, r#","row_y":["x"]},{"kind":"r"#),
            Ok(BASE),
        ),
        (
            r#"duplicate payload before kind, first wins"#,
            rep(r#"kind":"raman","gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]]"#, r#"gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]],"gates":[["q"]],"kind":"raman""#),
            Ok(BASE),
        ),
        (
            r#"escaped keys"#,
            r#"{"format":"qpilot.schedule/v1","num\u005fdata":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":[{"kind":"transfer","ops":[[0,0,1,true]]},{"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]},{"k\u0069nd":"raman","g\u0061tes":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]]},{"kind":"rydberg","ops":[[["d",0],["a",0],"cz"],[["a",0],["d",2],["cx",true]],[["d",1],["d",2],["zz",0.7]]]},{"kind":"transfer","ops":[[0,0,1,false]]}]}"#.to_string(),
            Ok(BASE),
        ),
        (
            r#"escaped string values"#,
            r#"{"format":"qpilot.schedule\/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":[{"kind":"transfer","ops":[[0,0,1,true]]},{"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]},{"kind":"raman","gates":[["\u0068",2],["rz",0,-0.25],["rzz",0,1,0.5]]},{"kind":"rydberg","ops":[[["d",0],["a",0],"cz"],[["a",0],["d",2],["cx",true]],[["d",1],["d",2],["zz",0.7]]]},{"kind":"transfer","ops":[[0,0,1,false]]}]}"#.to_string(),
            Ok(BASE),
        ),
        (
            r#"whitespace between every token"#,
            spaced(BASE),
            Ok(BASE),
        ),
        (
            r#"unknown keys with nested values"#,
            r#"{"x":{"a":[1,{"b":null}],"c":"d\u0041"},"format":"qpilot.schedule/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":[{"kind":"transfer","ops":[[0,0,1,true]]},{"note":[[[]],{}],"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]},{"kind":"raman","gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]]},{"kind":"rydberg","ops":[[["d",0],["a",0],"cz"],[["a",0],["d",2],["cx",true]],[["d",1],["d",2],["zz",0.7]]]},{"kind":"transfer","ops":[[0,0,1,false]]}]}"#.to_string(),
            Ok(BASE),
        ),
        (
            r#"lenient integers"#,
            rep(r#"3,"num_ancillas":1,"aod_rows":2,"aod_cols":2"#, r#"+3,"num_ancillas":1.,"aod_rows":002,"aod_cols":2e0"#),
            Ok(BASE),
        ),
        (
            r#"lenient floats"#,
            rep(r#"0.5,10],"col"#, r#".5,+10.],"col"#),
            Ok(BASE),
        ),
        (
            r#"lenient ops"#,
            rep(r#"0,0,1,true]]"#, r#"-0,+0,1.0,true]]"#),
            Ok(BASE),
        ),
        (
            r#"1e999 gate angle"#,
            rep(r#"-0.25],["rzz"#, r#"1e999],["rzz"#),
            Err(r#"schedule schema error: gate `rz` needs a finite angle at 2"#),
        ),
        (
            r#"1e999 zz angle"#,
            rep(r#"0.7]]]},{"ki"#, r#"-1e999]]]},{"ki"#),
            Err(r#"schedule schema error: zz angle must be finite"#),
        ),
        (
            r#"non-finite move coordinate"#,
            rep(r#"0.5,10],"col"#, r#"1e999,10],"col"#),
            Err(r#"schedule schema error: row_y entries must be finite"#),
        ),  // accepted by the tree decoder, which could not re-serialise it
        (
            r#"non-finite col_x coordinate"#,
            rep(r#"11.85]},{"ki"#, r#"-1e999]},{"ki"#),
            Err(r#"schedule schema error: col_x entries must be finite"#),
        ),  // accepted by the tree decoder, which could not re-serialise it
        (
            r#"invalid number"#,
            rep(r#"3,"num_ancil"#, r#"1e,"num_ancil"#),
            Err(r#"json error at byte 42: invalid number"#),
        ),
        (
            r#"128 nested [] in an ignored key"#,
            rep(r#"format":"qpi"#, &[r#"x":"#, &r#"["#.repeat(128), &r#"]"#.repeat(128), r#","format":"qpi"#].concat()),
            Ok(BASE),
        ),
        (
            r#"128 nested arrays around 1 in an ignored key"#,
            rep(r#"format":"qpi"#, &[r#"x":"#, &r#"["#.repeat(128), r#"1"#, &r#"]"#.repeat(128), r#","format":"qpi"#].concat()),
            Err(r#"json error at byte 133: nesting deeper than 128 levels"#),
        ),
        (
            r#"127 nested arrays around 1 in an ignored key"#,
            rep(r#"format":"qpi"#, &[r#"x":"#, &r#"["#.repeat(127), r#"1"#, &r#"]"#.repeat(127), r#","format":"qpi"#].concat()),
            Ok(BASE),
        ),
        (
            r#"deep object in an ignored key"#,
            rep(r#"format":"qpi"#, &[r#"x":"#, &r#"{"a":"#.repeat(127), r#"1"#, &r#"}"#.repeat(127), r#","format":"qpi"#].concat()),
            Ok(BASE),
        ),
        (
            r#"deep object too deep"#,
            rep(r#"format":"qpi"#, &[r#"x":"#, &r#"{"a":"#.repeat(129), r#"1"#, &r#"}"#.repeat(129), r#","format":"qpi"#].concat()),
            Err(r#"json error at byte 645: nesting deeper than 128 levels"#),
        ),
        (
            r#"not an object"#,
            r#"[1,2]"#.to_string(),
            Err(r#"schedule schema error: missing `format` tag"#),
        ),
        (
            r#"129 nested [] at the top"#,
            "[".repeat(129) + &"]".repeat(129),
            Err(r#"schedule schema error: missing `format` tag"#),
        ),
        (
            r#"129 nested arrays around 1 at the top"#,
            [&r#"["#.repeat(129), r#"1"#, &r#"]"#.repeat(129)].concat(),
            Err(r#"json error at byte 129: nesting deeper than 128 levels"#),
        ),
        (
            r#"not an object, trailing"#,
            r#"[1,2] x"#.to_string(),
            Err(r#"json error at byte 6: trailing characters"#),
        ),
        (
            r#"missing format"#,
            rep(r#"format":"qpilot.schedule/v1",""#, ""),
            Err(r#"schedule schema error: missing `format` tag"#),
        ),
        (
            r#"format not a string"#,
            rep(r#""qpilot.schedule/v1""#, r#"1"#),
            Err(r#"schedule schema error: missing `format` tag"#),
        ),
        (
            r#"wrong format"#,
            rep(r#"1","num_data"#, r#"9","num_data"#),
            Err(r#"schedule schema error: format `qpilot.schedule/v9` is not `qpilot.schedule/v1`"#),
        ),
        (
            r#"missing num_data"#,
            rep(r#"data":3,"num_"#, ""),
            Err(r#"schedule schema error: missing integer field `num_data`"#),
        ),
        (
            r#"num_data negative"#,
            rep(r#"3,"num_ancil"#, r#"-3,"num_ancil"#),
            Err(r#"schedule schema error: missing integer field `num_data`"#),
        ),
        (
            r#"num_data too big"#,
            rep(r#"3,"num_ancil"#, r#"4294967296,"num_ancil"#),
            Err(r#"schedule schema error: missing integer field `num_data`"#),
        ),
        (
            r#"num_data fractional"#,
            rep(r#","num_ancill"#, r#".5,"num_ancill"#),
            Err(r#"schedule schema error: missing integer field `num_data`"#),
        ),
        (
            r#"missing aod_rows"#,
            rep(r#"rows":2,"aod_"#, ""),
            Err(r#"schedule schema error: missing integer field `aod_rows`"#),
        ),
        (
            r#"aod_cols string"#,
            rep(r#"2,"stages":["#, r#""2","stages":["#),
            Err(r#"schedule schema error: missing integer field `aod_cols`"#),
        ),
        (
            r#"missing num_ancillas"#,
            rep(r#"num_ancillas":1,""#, ""),
            Err(r#"schedule schema error: missing integer field `num_ancillas`"#),
        ),
        (
            r#"missing stages"#,
            r#"{"format":"qpilot.schedule/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2}"#.to_string(),
            Err(r#"schedule schema error: missing `stages` array"#),
        ),
        (
            r#"stages not an array"#,
            r#"{"format":"qpilot.schedule/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":{}}"#.to_string(),
            Err(r#"schedule schema error: missing `stages` array"#),
        ),
        (
            r#"stage not an object"#,
            doc(r#"5"#),
            Err(r#"schedule schema error: stage needs a `kind`"#),
        ),
        (
            r#"stage without kind"#,
            doc(r#"{"gates":[]}"#),
            Err(r#"schedule schema error: stage needs a `kind`"#),
        ),
        (
            r#"stage kind not a string"#,
            doc(r#"{"kind":5,"gates":[]}"#),
            Err(r#"schedule schema error: stage needs a `kind`"#),
        ),
        (
            r#"unknown stage kind"#,
            doc(r#"{"kind":"warp"}"#),
            Err(r#"schedule schema error: unknown stage kind `warp`"#),
        ),
        (
            r#"raman without gates"#,
            doc(r#"{"kind":"raman"}"#),
            Err(r#"schedule schema error: raman stage needs `gates`"#),
        ),
        (
            r#"raman gates not array"#,
            doc(r#"{"kind":"raman","gates":{"a":1}}"#),
            Err(r#"schedule schema error: raman stage needs `gates`"#),
        ),
        (
            r#"transfer without ops"#,
            doc(r#"{"kind":"transfer","gates":[]}"#),
            Err(r#"schedule schema error: transfer stage needs `ops`"#),
        ),
        (
            r#"move without row_y"#,
            doc(r#"{"kind":"move","col_x":[1]}"#),
            Err(r#"schedule schema error: move stage needs `row_y`"#),
        ),
        (
            r#"move without col_x"#,
            doc(r#"{"kind":"move","row_y":[1]}"#),
            Err(r#"schedule schema error: move stage needs `col_x`"#),
        ),
        (
            r#"move col_x not array"#,
            doc(r#"{"kind":"move","row_y":[1],"col_x":1}"#),
            Err(r#"schedule schema error: move stage needs `col_x`"#),
        ),
        (
            r#"rydberg without ops"#,
            doc(r#"{"kind":"rydberg"}"#),
            Err(r#"schedule schema error: rydberg stage needs `ops`"#),
        ),
        (
            r#"gate not an array"#,
            doc(r#"{"kind":"raman","gates":["h"]}"#),
            Err(r#"schedule schema error: gate must be an array"#),
        ),
        (
            r#"gate without mnemonic"#,
            doc(r#"{"kind":"raman","gates":[[2,"h"]]}"#),
            Err(r#"schedule schema error: gate array must start with a mnemonic"#),
        ),
        (
            r#"empty gate"#,
            doc(r#"{"kind":"raman","gates":[[]]}"#),
            Err(r#"schedule schema error: gate array must start with a mnemonic"#),
        ),
        (
            r#"gate operand not a qubit"#,
            doc(r#"{"kind":"raman","gates":[["h","x"]]}"#),
            Err(r#"schedule schema error: gate `h` operand 1 must be a qubit index"#),
        ),
        (
            r#"gate operand negative"#,
            doc(r#"{"kind":"raman","gates":[["cz",0,-1]]}"#),
            Err(r#"schedule schema error: gate `cz` operand 2 must be a qubit index"#),
        ),
        (
            r#"gate angle not finite"#,
            doc(r#"{"kind":"raman","gates":[["rx",0,"pi"]]}"#),
            Err(r#"schedule schema error: gate `rx` needs a finite angle at 2"#),
        ),
        (
            r#"gate arity"#,
            doc(r#"{"kind":"raman","gates":[["h",0,1]]}"#),
            Err(r#"schedule schema error: gate `h` expects 1 trailing element(s), got 2"#),
        ),
        (
            r#"gate arity, long"#,
            doc(r#"{"kind":"raman","gates":[["rzz",0,1,2,3,[4],{"a":5}]]}"#),
            Err(r#"schedule schema error: gate `rzz` expects 3 trailing element(s), got 6"#),
        ),
        (
            r#"unknown gate"#,
            doc(r#"{"kind":"raman","gates":[["q",0]]}"#),
            Err(r#"schedule schema error: unknown gate mnemonic `q`"#),
        ),
        (
            r#"transfer op not an array"#,
            doc(r#"{"kind":"transfer","ops":[{}]}"#),
            Err(r#"schedule schema error: transfer op must be [ancilla, row, col, load]"#),
        ),
        (
            r#"transfer op short"#,
            doc(r#"{"kind":"transfer","ops":[[0,0,1]]}"#),
            Err(r#"schedule schema error: transfer op must be [ancilla, row, col, load]"#),
        ),
        (
            r#"transfer ancilla"#,
            doc(r#"{"kind":"transfer","ops":[[-1,0,1,true]]}"#),
            Err(r#"schedule schema error: transfer ancilla id"#),
        ),
        (
            r#"transfer row"#,
            doc(r#"{"kind":"transfer","ops":[[0,0.5,1,true]]}"#),
            Err(r#"schedule schema error: transfer row"#),
        ),
        (
            r#"transfer col"#,
            doc(r#"{"kind":"transfer","ops":[[0,0,null,true]]}"#),
            Err(r#"schedule schema error: transfer col"#),
        ),
        (
            r#"transfer load"#,
            doc(r#"{"kind":"transfer","ops":[[0,0,1,1]]}"#),
            Err(r#"schedule schema error: transfer load flag"#),
        ),
        (
            r#"row_y entry"#,
            doc(r#"{"kind":"move","row_y":["a"],"col_x":[1]}"#),
            Err(r#"schedule schema error: row_y entries"#),
        ),
        (
            r#"col_x entry"#,
            doc(r#"{"kind":"move","row_y":[1],"col_x":[null]}"#),
            Err(r#"schedule schema error: col_x entries"#),
        ),
        (
            r#"rydberg op not an array"#,
            doc(r#"{"kind":"rydberg","ops":["cz"]}"#),
            Err(r#"schedule schema error: rydberg op must be [atom, atom, kind]"#),
        ),
        (
            r#"rydberg op short"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",1]]]}"#),
            Err(r#"schedule schema error: rydberg op must be [atom, atom, kind]"#),
        ),
        (
            r#"rydberg op long"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",1],"cz","cz"]]}"#),
            Err(r#"schedule schema error: rydberg op must be [atom, atom, kind]"#),
        ),
        (
            r#"atom not a pair"#,
            doc(r#"{"kind":"rydberg","ops":[[["d"],["d",1],"cz"]]}"#),
            Err(r#"schedule schema error: atom must be [tag, index]"#),
        ),
        (
            r#"atom scalar"#,
            doc(r#"{"kind":"rydberg","ops":[[0,["d",1],"cz"]]}"#),
            Err(r#"schedule schema error: atom must be [tag, index]"#),
        ),
        (
            r#"atom index"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",-1],"cz"]]}"#),
            Err(r#"schedule schema error: atom index must be a u32"#),
        ),
        (
            r#"atom tag"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["q",1],"cz"]]}"#),
            Err(r#"schedule schema error: atom tag must be "d" or "a""#),
        ),
        (
            r#"rydberg kind scalar"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",1],"cx"]]}"#),
            Err(r#"schedule schema error: rydberg kind must be "cz", ["cx",b] or ["zz",t]"#),
        ),
        (
            r#"rydberg kind short"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",1],["zz"]]]}"#),
            Err(r#"schedule schema error: rydberg kind must be "cz", ["cx",b] or ["zz",t]"#),
        ),
        (
            r#"cx flag"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",1],["cx",1]]]}"#),
            Err(r#"schedule schema error: cx target flag"#),
        ),
        (
            r#"zz angle"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",1],["zz","x"]]]}"#),
            Err(r#"schedule schema error: zz angle must be finite"#),
        ),
        (
            r#"unknown rydberg kind"#,
            doc(r#"{"kind":"rydberg","ops":[[["d",0],["d",1],["cy",true]]]}"#),
            Err(r#"schedule schema error: unknown rydberg kind"#),
        ),
        (
            r#"empty stages"#,
            doc(""),
            Ok(r#"{"format":"qpilot.schedule/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":[]}"#),
        ),
        (
            r#"truncated"#,
            r#"{"format":"qpilot.schedule/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":[{"kind":"transfer","ops":[[0,0,1,true]]},{"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]},{"kind":"rama"#.to_string(),
            Err(r#"json error at byte 205: unterminated string"#),
        ),
        (
            r#"truncated in a string"#,
            r#"{"format":"qpilot.schedule/v1","num_data":3,"num_ancillas":1,"aod_rows":2,"aod_cols":2,"stages":[{"kind":"transfer","ops":[[0,0,1,true]]},{"kind":"move","row_y":[0.5,10],"col_x":[1.85,11.85]},{"kind":"raman","gates":[["h",2],["rz",0,-0.25],["rzz",0,1,0.5]]},{"kind":"ryd"#.to_string(),
            Err(r#"json error at byte 270: unterminated string"#),
        ),
        (
            r#"trailing characters"#,
            rep(r#"}]}"#, r#"}]} x"#),
            Err(r#"json error at byte 411: trailing characters"#),
        ),
        (
            r#"trailing comma"#,
            rep(r#"},{"kind":"m"#, r#",},{"kind":"m"#),
            Err(r#"json error at byte 137: expected string"#),
        ),
        (
            r#"missing colon"#,
            rep(r#":3,"num_anci"#, r#" 3,"num_anci"#),
            Err(r#"json error at byte 42: expected `:`"#),
        ),
        (
            r#"bad escape"#,
            rep(r#"ormat":"qpil"#, r#"\qormat":"qpil"#),
            Err(r#"json error at byte 4: invalid escape"#),
        ),
        (
            r#"unpaired surrogate"#,
            rep(r#"format":"qpi"#, r#"\ud800format":"qpi"#),
            Err(r#"json error at byte 7: unpaired surrogate"#),
        ),
        (
            r#"control character"#,
            rep(r#"mat":"qpilot"#, "\u{1}mat\":\"qpilot"),
            Err(r#"json error at byte 5: control character in string"#),
        ),
        (
            r#"invalid literal"#,
            rep(r#"e]]},{"kind""#, r#"]]},{"kind""#),
            Err(r#"json error at byte 130: invalid literal"#),
        ),
        (
            r#"empty"#,
            "".to_string(),
            Err(r#"json error at byte 0: unexpected end of input"#),
        ),
        (
            r#"lone high surrogate escape in value"#,
            rep(r#"qpilot.schedule/v1"#, r#"\uD83D\uDE00"#),
            Err(r#"schedule schema error: format `😀` is not `qpilot.schedule/v1`"#),
        ),
    ]
}

#[test]
fn schedule_decode_decisions_match_the_table() {
    let mut wrong = Vec::new();
    for (what, doc, expected) in rows() {
        let got = schedule_from_json(&doc)
            .map(|s| schedule_to_json(&s))
            .map_err(|e| e.to_string());
        if got.as_deref().map_err(String::as_str) != expected {
            wrong.push(format!("{what}: got {got:?}, expected {expected:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
