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

let scan_cmt tbl file =
  match Cmt_format.read_cmt file with
  | { cmt_annots = Implementation str; cmt_sourcefile = Some src; _ } ->
      let dir = top_dir src and u = unit_of src in
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
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
      in
      let it = { Tast_iterator.default_iterator with expr } in
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
  List.iter
    (fun f ->
      match Cmt_format.read_cmt f with
      | { cmt_annots = Interface sg; cmt_sourcefile = Some src; _ } ->
          let m = String.capitalize_ascii (Filename.basename (unit_of src)) in
          List.iter
            (fun ex ->
              Hashtbl.replace tbl ex.loc
                (ex, { callers = Hashtbl.create 4; passed = Hashtbl.create 4 }))
            (exports (m ^ ".") sg)
      | _ -> ())
    (cmts "lib" ".cmti");
  if Hashtbl.length tbl = 0 then (
    prerr_endline
      ("export_check: no lib/ .cmti under " ^ root
     ^ ": run `dune build @check` first");
    exit 2);
  List.iter (fun d -> List.iter (scan_cmt tbl) (cmts d ".cmt")) dirs;
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
  (* One value or optional argument: count its class and tag, and name it
     if it breaks the rule. *)
  let check ~kind ex what tag dirs =
    let dirs = List.sort_uniq compare dirs in
    let cls =
      if dirs = [] then "uncalled"
      else if List.for_all (( = ) "test") dirs then "test-only"
      else "called"
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
        let p = ex.loc.loc_start in
        Printf.printf "File \"%s\", line %d: %s: %s\n" p.pos_fname p.pos_lnum
          what msg)
      (verdict tag dirs)
  in
  List.iter
    (fun (ex, uses) ->
      check ~kind:"values" ex ex.name ex.tag
        (Hashtbl.fold (fun d () acc -> d :: acc) uses.callers []);
      List.iter
        (fun (l, t) ->
          let dirs =
            Hashtbl.fold
              (fun (l', d) () acc -> if l' = l then d :: acc else acc)
              uses.passed []
          in
          check ~kind:"optional arguments" ex (ex.name ^ " ?" ^ l)
            (if t = Untagged then ex.tag else t)
            dirs)
        ex.opts)
    all;
  if report then (
    Printf.printf "exported values: %d\noptional arguments: %d\n"
      (List.length all)
      (List.fold_left (fun n (ex, _) -> n + List.length ex.opts) 0 all);
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
    |> List.sort compare
    |> List.iter (fun (k, n) -> Printf.printf "%s: %d\n" k n));
  if !failures > 0 then (
    Printf.printf "export_check: %d export(s) break the rule\n" !failures;
    exit 1)
