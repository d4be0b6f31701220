(* No export without a caller.

   Reads the typed trees dune writes ([dune build @check]): the [.cmti] of
   every [lib/] unit for what is exported, and the [.cmt] of every unit in
   [lib bin bench benchmark examples test] for what is referenced.  An
   export is keyed by its declaration's location, which every reference
   carries in its [value_description]: the key survives dune's [Lib__Mod]
   wrapping, module aliases, [open] and [include].  Only references from
   another compilation unit count.

   The rule, for every value in a [lib/] [.mli], nested signatures
   included:
   - untagged: it needs a caller outside [test/];
   - [[@@test_only]] (an oracle or inspection hook): it needs a caller in
     [test/] and none outside it;
   - [[@@benchmark_only]]: it needs a caller in [benchmark/] and none
     outside it.
   Each optional argument follows its value's rule, counting only the
   callers that pass it ([~l] or [?l]; a function used unapplied passes
   all of them).  An optional argument only tests pass is tagged on its
   type: [?l:(int[@test_only]) -> ...].

   Every field of a record type in a [lib/] [.mli] follows the same rule
   with reads in place of callers, its own unit's code included: [r.f],
   or a pattern that binds or tests [f].  Building a record, [{ r with f
   = ... }] and [r.f <- e] write [f]; a read of [f] inside [e] (an
   update from itself, [r.f <- r.f + 1]) is not a read either.  The tags
   go on the field: [f : int [@test_only]]; a [[@benchmark_only]] field
   needs a use of any kind in [benchmark/] and no read outside it.  A
   field is keyed by its [.mli] declaration, which other units' reads
   carry; its own unit's reads carry the [.ml] declaration, matched to the
   [.mli] one by its qualified name.

   Usage: [export_check.exe [--report] [BUILD_DIR]], run from the
   repository root; [BUILD_DIR] defaults to [_build/default].  Exits 1
   and names each export that breaks the rule.  [--report] also prints
   the counts and every export's class. *)

open Typedtree

let dirs = [ "lib"; "bin"; "bench"; "benchmark"; "examples"; "test" ]

type tag = Untagged | Test_only | Benchmark_only

let tag_of (attrs : attributes) =
  List.fold_left
    (fun acc (a : attribute) ->
      match a.attr_name.txt with
      | "test_only" -> Test_only
      | "benchmark_only" -> Benchmark_only
      | _ -> acc)
    Untagged attrs

type export = {
  name : string;  (** [Unit.Nested.value] *)
  loc : Location.t;
  tag : tag;
  opts : (string * tag) list;  (** optional arguments, with their own tag *)
}

(* The top directory of each unit that references an export, and per
   optional argument, of each unit that passes it. *)
type uses = {
  callers : (string, unit) Hashtbl.t;
  passed : (string * string, unit) Hashtbl.t;
}

let rec optionals (t : core_type) =
  match t.ctyp_desc with
  | Ttyp_arrow (Optional l, arg, ret) ->
      (l, tag_of arg.ctyp_attributes) :: optionals ret
  | Ttyp_arrow (_, _, ret) | Ttyp_poly (_, ret) -> optionals ret
  | _ -> []

(* A record field: [reads] and [uses] (reads and writes) hold the top
   directory of each unit that does so. *)
type field = {
  fname : string;  (** [Unit.type.field] *)
  floc : Location.t;
  ftag : tag;
  reads : (string, unit) Hashtbl.t;
  uses : (string, unit) Hashtbl.t;
}

(* The record fields a signature (or, for the [.ml] side, a structure)
   declares, by qualified name. *)
let record_fields prefix (td : type_declaration) =
  match td.typ_kind with
  | Ttype_record lds ->
      List.map
        (fun ld -> (prefix ^ td.typ_name.txt ^ "." ^ ld.ld_name.txt, ld))
        lds
  | _ -> []

let rec sig_fields prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_type (_, tds) -> List.concat_map (record_fields prefix) tds
      | Tsig_module
          {
            md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          sig_fields (prefix ^ m ^ ".") sg
      | _ -> [])
    sg.sig_items

let rec str_fields prefix (str : structure) =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_type (_, tds) -> List.concat_map (record_fields prefix) tds
      | Tstr_module
          {
            mb_name = { txt = Some m; _ };
            mb_expr = { mod_desc = Tmod_structure str; _ };
            _;
          } ->
          str_fields (prefix ^ m ^ ".") str
      | _ -> [])
    str.str_items

let rec exports prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          [
            {
              name = prefix ^ vd.val_name.txt;
              loc = vd.val_val.val_loc;
              tag = tag_of vd.val_attributes;
              opts = optionals vd.val_desc;
            };
          ]
      | Tsig_module
          {
            md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          exports (prefix ^ m ^ ".") sg
      | _ -> [])
    sg.sig_items

let rec files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names |> List.sort compare
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then files p else [ p ])

(* "lib/core/router.mli" -> "lib/core/router": one compilation unit. *)
let unit_of file = Filename.remove_extension file

let top_dir file =
  match String.index_opt file '/' with
  | Some i -> String.sub file 0 i
  | None -> file

(* The expression an application passes for one argument, if any.  The
   typed tree's argument type differs between compiler versions (an
   [option] before 5.2, [arg_or_omitted] after), so this asks the stock
   iterator, which walks either, for the argument of a one-argument copy
   of the application. *)
let argument (app : expression) f arg =
  let found = ref None in
  let expr _ e = if e != f then found := Some e in
  let sub = { Tast_iterator.default_iterator with expr } in
  Tast_iterator.default_iterator.expr sub
    { app with exp_desc = Texp_apply (f, [ (Asttypes.Nolabel, arg) ]) };
  !found

(* The type checker fills an optional argument the caller left out with a
   [None] at no location. *)
let passed (e : expression) = e.exp_loc <> Location.none

let module_name src =
  String.capitalize_ascii (Filename.basename (unit_of src))

let scan_cmt tbl fields by_name file =
  match Cmt_format.read_cmt file with
  | { cmt_annots = Implementation str; cmt_sourcefile = Some src; _ } ->
      let dir = top_dir src and u = unit_of src in
      (* A [lib/] unit's own declarations: its reads carry these. *)
      if dir = "lib" then
        List.iter
          (fun (name, ld) ->
            Option.iter
              (Hashtbl.replace fields ld.ld_loc)
              (Hashtbl.find_opt by_name (u, name)))
          (str_fields (module_name src ^ ".") str);
      let field_use (lbl : Types.label_description) ~read =
        match Hashtbl.find_opt fields lbl.lbl_loc with
        | Some f ->
            Hashtbl.replace f.uses dir ();
            if read then Hashtbl.replace f.reads dir ()
        | None -> ()
      in
      (* Fields being assigned: a read of one inside its own new value
         is an update, not a read. *)
      let assigning = ref [] in
      (* [labels] is [None] for a function used unapplied. *)
      let use (vd : Types.value_description) labels =
        match Hashtbl.find_opt tbl vd.val_loc with
        | Some (ex, uses) when unit_of ex.loc.loc_start.pos_fname <> u ->
            Hashtbl.replace uses.callers dir ();
            List.iter
              (fun (l, _) ->
                if Option.fold ~none:true ~some:(List.mem l) labels then
                  Hashtbl.replace uses.passed (l, dir) ())
              ex.opts
        | _ -> ()
      in
      (* The function of the application being visited, so the ident
         case below does not count it again as unapplied. *)
      let applied = ref None in
      let expr sub e =
        (match e.exp_desc with
        | Texp_ident (_, _, vd) -> (
            match !applied with Some f when f == e -> () | _ -> use vd None)
        | Texp_apply (({ exp_desc = Texp_ident (_, _, vd); _ } as f), args) ->
            let labels =
              List.filter_map
                (fun (lbl, arg) ->
                  match (lbl, argument e f arg) with
                  | (Asttypes.Labelled l | Optional l), Some a when passed a ->
                      Some l
                  | _ -> None)
                args
            in
            use vd (Some labels);
            applied := Some f
        | Texp_field (_, _, lbl) ->
            field_use lbl ~read:(not (List.mem lbl.lbl_loc !assigning))
        | Texp_record { fields; _ } ->
            Array.iter
              (fun (lbl, def) ->
                match def with
                | Overridden _ -> field_use lbl ~read:false
                | Kept _ -> ())
              fields
        | _ -> ());
        match e.exp_desc with
        | Texp_setfield (r, _, lbl, v) ->
            field_use lbl ~read:false;
            sub.Tast_iterator.expr sub r;
            assigning := lbl.lbl_loc :: !assigning;
            sub.Tast_iterator.expr sub v;
            assigning := List.tl !assigning
        | _ -> Tast_iterator.default_iterator.expr sub e
      in
      let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
       fun sub p ->
        (match p.pat_desc with
        | Tpat_record (fs, _) ->
            List.iter
              (fun (_, lbl, (q : pattern)) ->
                match q.pat_desc with
                | Tpat_any -> ()
                | _ -> field_use lbl ~read:true)
              fs
        | _ -> ());
        Tast_iterator.default_iterator.pat sub p
      in
      let it = { Tast_iterator.default_iterator with expr; pat } in
      it.structure it str
  | _ -> ()

(* What breaks the rule, given the directories of the callers. *)
let verdict tag dirs =
  let outside d = List.filter (( <> ) d) dirs in
  let from ds = String.concat "/, " ds ^ "/" in
  match tag with
  | _ when dirs = [] -> Some "no caller"
  | Untagged when outside "test" = [] ->
      Some "called only from test/: tag it [@@test_only] or delete it"
  | Test_only when outside "test" <> [] ->
      Some ("[@@test_only] but called from " ^ from (outside "test"))
  | Benchmark_only when not (List.mem "benchmark" dirs) ->
      Some "[@@benchmark_only] but not called from benchmark/"
  | Benchmark_only when outside "benchmark" <> [] ->
      Some ("[@@benchmark_only] but called from " ^ from (outside "benchmark"))
  | _ -> None

(* The same rule for a field, given the directories that read it and
   those that use it at all. *)
let field_verdict tag ~reads ~uses =
  let outside d ds = List.filter (( <> ) d) ds in
  let from ds = String.concat "/, " ds ^ "/" in
  match tag with
  | (Untagged | Test_only) when reads = [] -> Some "never read"
  | Untagged when outside "test" reads = [] ->
      Some "read only from test/: tag it [@test_only] or delete it"
  | Test_only when outside "test" reads <> [] ->
      Some ("[@test_only] but read from " ^ from (outside "test" reads))
  | Benchmark_only when not (List.mem "benchmark" uses) ->
      Some "[@benchmark_only] but not used in benchmark/"
  | Benchmark_only when outside "benchmark" reads <> [] ->
      Some ("[@benchmark_only] but read from " ^ from (outside "benchmark" reads))
  | _ -> None

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let report = List.mem "--report" args in
  let root =
    match List.filter (( <> ) "--report") args with
    | [ r ] -> r
    | _ -> "_build/default"
  in
  let cmts dir ext =
    files (Filename.concat root dir)
    |> List.filter (fun f -> Filename.check_suffix f ext)
  in
  let tbl = Hashtbl.create 1024 in
  let fields = Hashtbl.create 1024 and by_name = Hashtbl.create 1024 in
  List.iter
    (fun f ->
      match Cmt_format.read_cmt f with
      | { cmt_annots = Interface sg; cmt_sourcefile = Some src; _ } ->
          let m = module_name src in
          List.iter
            (fun ex ->
              Hashtbl.replace tbl ex.loc
                (ex, { callers = Hashtbl.create 4; passed = Hashtbl.create 4 }))
            (exports (m ^ ".") sg);
          List.iter
            (fun (fname, ld) ->
              let f =
                {
                  fname;
                  floc = ld.ld_loc;
                  ftag = tag_of ld.ld_attributes;
                  reads = Hashtbl.create 4;
                  uses = Hashtbl.create 4;
                }
              in
              Hashtbl.replace fields ld.ld_loc f;
              Hashtbl.replace by_name (unit_of src, fname) f)
            (sig_fields (m ^ ".") sg)
      | _ -> ())
    (cmts "lib" ".cmti");
  if Hashtbl.length tbl = 0 then (
    prerr_endline
      ("export_check: no lib/ .cmti under " ^ root
     ^ ": run `dune build @check` first");
    exit 2);
  List.iter (fun d -> List.iter (scan_cmt tbl fields by_name) (cmts d ".cmt")) dirs;
  let all =
    Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) ->
           let key ex = (ex.loc.loc_start.pos_fname, ex.loc.loc_start.pos_cnum) in
           compare (key a) (key b))
  in
  let counts = Hashtbl.create 16 and failures = ref 0 in
  let count k =
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  (* One value, optional argument or field: count its class and tag, and
     name it if it breaks the rule ([msg], from the directories that
     call or read it, [dirs]). *)
  let check ~kind ~unused ~used (loc : Location.t) what tag dirs msg =
    let dirs = List.sort_uniq compare dirs in
    let cls =
      if dirs = [] then unused
      else if List.for_all (( = ) "test") dirs then "test-only"
      else used
    in
    count (kind ^ " " ^ cls);
    (match tag with
    | Untagged -> ()
    | Test_only -> count ("[@@test_only] " ^ kind)
    | Benchmark_only -> count ("[@@benchmark_only] " ^ kind));
    if report then
      Printf.printf "  %-9s %s [%s]\n" cls what (String.concat " " dirs);
    Option.iter
      (fun msg ->
        incr failures;
        let p = loc.loc_start in
        Printf.printf "File \"%s\", line %d: %s: %s\n" p.pos_fname p.pos_lnum
          what msg)
      msg
  in
  let keys h = Hashtbl.fold (fun d () acc -> d :: acc) h [] in
  List.iter
    (fun (ex, uses) ->
      let dirs = keys uses.callers in
      check ~kind:"values" ~unused:"uncalled" ~used:"called" ex.loc ex.name
        ex.tag dirs (verdict ex.tag dirs);
      List.iter
        (fun (l, t) ->
          let dirs =
            Hashtbl.fold
              (fun (l', d) () acc -> if l' = l then d :: acc else acc)
              uses.passed []
          in
          let tag = if t = Untagged then ex.tag else t in
          check ~kind:"optional arguments" ~unused:"uncalled" ~used:"called"
            ex.loc (ex.name ^ " ?" ^ l) tag dirs (verdict tag dirs))
        ex.opts)
    all;
  (* Own-unit aliases share a field record: check each once. *)
  let all_fields =
    Hashtbl.fold (fun loc f acc -> if loc = f.floc then f :: acc else acc) fields []
    |> List.sort (fun a b ->
           let key f = (f.floc.loc_start.pos_fname, f.floc.loc_start.pos_cnum) in
           compare (key a) (key b))
  in
  List.iter
    (fun f ->
      let reads = keys f.reads in
      check ~kind:"fields" ~unused:"unread" ~used:"read" f.floc f.fname f.ftag
        reads
        (field_verdict f.ftag ~reads ~uses:(keys f.uses)))
    all_fields;
  if report then (
    Printf.printf "exported values: %d\noptional arguments: %d\nfields: %d\n"
      (List.length all)
      (List.fold_left (fun n (ex, _) -> n + List.length ex.opts) 0 all)
      (List.length all_fields);
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
    |> List.sort compare
    |> List.iter (fun (k, n) -> Printf.printf "%s: %d\n" k n));
  if !failures > 0 then (
    Printf.printf "export_check: %d export(s) break the rule\n" !failures;
    exit 1)
