(* The layered benchmark driver.

   profile.exe run --workload W --seed S [--seconds N] [--trace 0|1|FILE]
                   [--run I] [--out FILE] [--smoke]
   profile.exe run --all [same options]
   profile.exe compare A.jsonl B.jsonl
   profile.exe calibrate [--seed S] [--seconds N] [--rates R1,R2,...]

   Run from the root of the repository, after building
   bench/profile/profile.exe and bin/satd.exe.  Metric names, units,
   directions and bounds come from BENCHMARK.json (--spec).  See
   README.md beside this file. *)

module J = Sat.Json

let workloads = [ "certify"; "large"; "cec"; "satd" ]

(* --- options -------------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 0
let trace = ref "0"
let run_index = ref 0
let out = ref ""
let smoke = ref false
let all = ref false
let satd = ref "_build/default/bin/satd.exe"
let spec_file = ref "BENCHMARK.json"
let rates = ref "40,80,120,160,200,240,280"
let args = ref []

let options =
  Arg.align
    [
      ("--workload", Arg.Set_string workload, "W certify, large, cec or satd");
      ("--all", Arg.Set all, " run every workload, each in its own process");
      ("--seed", Arg.Set_int seed, "S workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "N measuring time (default: run_seconds)");
      ("--trace", Arg.Set_string trace,
       "0|1|FILE 1 or FILE: traced run, spans written as JSON lines");
      ("--run", Arg.Set_int run_index, "I run index, recorded with the result");
      ("--out", Arg.Set_string out, "FILE append the result as one JSON line");
      ("--smoke", Arg.Set smoke, " tiny inputs: checks the harness end to end");
      ("--satd", Arg.Set_string satd, "PATH the satd executable");
      ("--spec", Arg.Set_string spec_file, "FILE metric definitions (BENCHMARK.json)");
      ("--rates", Arg.Set_string rates, "R1,R2,... calibrate: the rates to try");
    ]

let usage = "profile.exe (run|compare|calibrate|setup) [options]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("profile: " ^ m); exit 2) fmt

(* --- BENCHMARK.json -------------------------------------------------------- *)

type metric = { name : string; unit : string; higher : bool; bound : float }

type spec = { run_seconds : int; e2e : metric list; layers : metric list }

let read_spec () =
  let text =
    try In_channel.with_open_bin !spec_file In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  let j = match J.parse text with Ok j -> j | Error e -> die "%s: %s" !spec_file e in
  let str k o = Option.bind (J.member k o) J.to_string_opt in
  let metrics key =
    match Option.bind (J.member key j) J.to_list with
    | None -> die "%s has no %s list" !spec_file key
    | Some l ->
      List.map
        (fun o ->
           match (str "name" o, str "unit" o, str "better" o) with
           | Some name, Some unit, Some better ->
             let bound =
               Option.value ~default:0. (Option.bind (J.member "bound" o) J.to_float)
             in
             { name; unit; higher = better = "higher"; bound }
           | _ -> die "%s: malformed %s entry" !spec_file key)
        l
  in
  let spec =
    {
      run_seconds =
        Option.value ~default:20 (Option.bind (J.member "run_seconds" j) J.to_int);
      e2e = metrics "end_to_end";
      layers = metrics "per_layer";
    }
  in
  let check known ms =
    List.iter
      (fun m ->
         if not (List.mem m.name known) then
           die "%s names %s, which this harness does not measure" !spec_file m.name)
      ms
  in
  check Report.e2e_names spec.e2e;
  check Report.layer_names spec.layers;
  spec

(* --- provenance ------------------------------------------------------------ *)

(* Standard output of a helper command, or None if it fails. *)
let capture argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let r, w = Unix.pipe () in
  match Unix.create_process argv.(0) argv null w null with
  | exception Unix.Unix_error _ ->
    List.iter Unix.close [ null; r; w ];
    None
  | pid ->
    Unix.close w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let text = In_channel.input_all ic in
    close_in ic;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> Some (String.trim text)
     | _ -> None)

let provenance ~workload ~traced ~start =
  let commit = capture [| "git"; "rev-parse"; "HEAD" |] in
  let dirty =
    match capture [| "git"; "status"; "--porcelain" |] with
    | Some s -> J.Bool (s <> "")
    | None -> J.Null
  in
  let tm = Unix.gmtime start in
  [
    ("commit", match commit with Some c -> J.String c | None -> J.String "unknown");
    ("dirty", dirty);
    ("nproc", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.String Sys.ocaml_version);
    ("workload", J.String workload);
    ("seed", J.Int !seed);
    ("run", J.Int !run_index);
    ("trace", J.Bool traced);
    ("smoke", J.Bool !smoke);
    ("start",
     J.String
       (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
          (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
          tm.Unix.tm_sec));
  ]

(* --- run ------------------------------------------------------------------- *)

let mkdir_p dir = try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let run_one spec =
  if not (List.mem !workload workloads) then
    die "--workload must be one of %s" (String.concat ", " workloads);
  let trace_file =
    match !trace with
    | "0" -> None
    | "1" ->
      Some
        (Printf.sprintf "_profile/spans-%s-seed%d-run%d.jsonl" !workload !seed
           !run_index)
    | file -> Some file
  in
  let traced = trace_file <> None in
  let seconds =
    float_of_int (if !seconds > 0 then !seconds else spec.run_seconds)
  in
  let start = Unix.gettimeofday () in
  mkdir_p "_profile";
  let prov = provenance ~workload:!workload ~traced ~start in
  print_endline ("provenance " ^ J.to_string (J.Obj prov));
  Layer.on := traced;
  let (r : Report.t) =
    if !workload = "satd" then
      Satd_load.run ~satd:!satd ~seconds ~smoke:!smoke ~seed:!seed ~traced
    else
      let setup_argv =
        Array.of_list
          ([ Sys.executable_name; "setup"; "--workload"; !workload ]
           @ if !smoke then [ "--smoke" ] else [])
      in
      Batch.run ~setup_argv ~seconds ~smoke:!smoke ~seed:!seed ~traced
        ~workload:!workload
  in
  Option.iter Layer.write trace_file;
  let shown, values =
    if traced then (spec.layers, r.layers) else (spec.e2e, r.e2e)
  in
  let value m = Option.value (List.assoc_opt m.name values) ~default:0. in
  List.iter
    (fun m -> Printf.printf "%s %s %s\n" m.name (J.to_string (J.Float (value m))) m.unit)
    shown;
  Printf.printf "fail_ratio %s ratio\n"
    (J.to_string (J.Float (Stat.ratio (float_of_int r.failed) (float_of_int r.attempted))));
  List.iter (fun w -> Printf.eprintf "profile: wrong answer in %s: %s\n" !workload w) r.wrong;
  let correct = r.wrong = [] in
  let metrics =
    J.Obj
      (List.map
         (fun m ->
            (m.name, J.Obj [ ("value", J.Float (value m)); ("unit", J.String m.unit) ]))
         shown)
  in
  let result =
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics", metrics);
    ]
  in
  if !out <> "" then
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 !out (fun oc ->
        output_string oc (J.to_string (J.Obj (prov @ result)) ^ "\n"));
  print_endline (J.to_string (J.Obj result));
  if not correct then exit 1

(* Each workload in a child process of its own, so that peak memory
   belongs to one workload. *)
let run_all () =
  let trace w = match !trace with ("0" | "1") as t -> t | file -> file ^ "." ^ w in
  let pass_on w =
    List.concat
      [
        [ "--seed"; string_of_int !seed; "--trace"; trace w; "--run";
          string_of_int !run_index; "--satd"; !satd; "--spec"; !spec_file ];
        (if !seconds > 0 then [ "--seconds"; string_of_int !seconds ] else []);
        (if !out <> "" then [ "--out"; !out ] else []);
        (if !smoke then [ "--smoke" ] else []);
      ]
  in
  let ok =
    List.fold_left
      (fun ok w ->
         let argv =
           Array.of_list
             ([ Sys.executable_name; "run"; "--workload"; w ] @ pass_on w)
         in
         let pid =
           Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
         in
         match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ok
         | _ -> false)
      true workloads
  in
  if not ok then exit 1

(* The warm-up item of a batch workload, once: the body of the set-up
   time measurement. *)
let setup () =
  let c = Batch.corpus ~workload:!workload ~smoke:!smoke ~seed:!seed in
  match fst (Batch.run_item c.Batch.warmup) with
  | Report.Pass -> ()
  | Report.Failed why | Report.Wrong why -> die "warm-up item failed: %s" why

let () =
  (try Arg.parse_argv Sys.argv options (fun a -> args := !args @ [ a ]) usage with
   | Arg.Bad m -> prerr_string m; exit 2
   | Arg.Help m -> print_string m; exit 0);
  match !args with
  | [ "run" ] ->
    let spec = read_spec () in
    if !all then run_all () else run_one spec
  | [ "setup" ] -> setup ()
  | [ "compare"; a; b ] ->
    let metrics = List.map (fun m -> (m.name, m.higher, m.bound)) (read_spec ()).e2e in
    exit (Compare.run ~metrics a b)
  | [ "calibrate" ] ->
    Satd_load.calibrate ~satd:!satd ~seed:!seed
      ~seconds:(float_of_int (if !seconds > 0 then !seconds else 10))
      (List.map float_of_string (String.split_on_char ',' !rates))
  | _ -> die "%s" usage
