(* profile.exe compare A B: for each workload and end-to-end metric,
   each side's median and quartiles, the share of interleaved pairs
   (the i-th run of A against the i-th run of B) that B won, and a
   verdict:

     better        B won at least 9 pairs in 10 and the medians differ
                   by more than A's quartile spread, or every B run
                   beats every A run
     worse         B's median is worse than A's by more than the bound,
                   and the spread is within the bound or every A run
                   beats every B run
     unresolved    the spread is wider than the bound and neither side
                   beats the other in every run
     within bound  otherwise

   A and B are files of results written by [run --out]; traced runs are
   ignored.  Exits 1 if any metric is worse. *)

module J = Sat.Json

(* workload -> metric -> values in run order *)
let load path =
  let table = Hashtbl.create 8 in
  let order = ref [] in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
      if String.trim line <> "" then
        match J.parse line with
        | Error e -> failwith (path ^ ": " ^ e)
        | Ok r ->
          let traced = J.member "trace" r = Some (J.Bool true) in
          let smoke = J.member "smoke" r = Some (J.Bool true) in
          match (Option.bind (J.member "workload" r) J.to_string_opt, J.member "metrics" r) with
          | Some w, Some (J.Obj ms) when not (traced || smoke) ->
            if not (List.mem w !order) then order := !order @ [ w ];
            List.iter
              (fun (name, m) ->
                 match Option.bind (J.member "value" m) J.to_float with
                 | Some v ->
                   let k = (w, name) in
                   Hashtbl.replace table k
                     (Option.value (Hashtbl.find_opt table k) ~default:[] @ [ v ])
                 | None -> ())
              ms
          | _ -> ());
  (!order, fun w name -> Option.value (Hashtbl.find_opt table (w, name)) ~default:[])

let verdict ~higher ~bound a b =
  let beats x y = if higher then x > y else x < y in
  let ma = Stat.median a and mb = Stat.median b in
  let spread xs =
    let q1, q3 = Stat.quartiles xs in
    Stat.ratio (q3 -. q1) (Float.abs (Stat.median xs))
  in
  let q1a, q3a = Stat.quartiles a in
  let gain = if higher then mb -. ma else ma -. mb in
  let pairs = List.filteri (fun i _ -> i < List.length b) a in
  let wins = List.filteri (fun i x -> beats (List.nth b i) x) pairs in
  let won = Stat.ratio (float_of_int (List.length wins)) (float_of_int (List.length pairs)) in
  let every_b_beats = List.for_all (fun y -> List.for_all (beats y) a) b in
  let every_a_beats = List.for_all (fun x -> List.for_all (beats x) b) a in
  let worse_by_more = -.gain > bound *. Float.abs ma in
  let v =
    if every_b_beats then "better"
    else if every_a_beats && worse_by_more then "worse"
    else if Float.max (spread a) (spread b) > bound then "unresolved"
    else if won >= 0.9 && gain > q3a -. q1a then "better"
    else if worse_by_more then "worse"
    else "within bound"
  in
  (v, List.length wins, List.length pairs)

(* [metrics] are (name, higher is better, bound). *)
let run ~metrics a_path b_path =
  let order_a, a = load a_path in
  let order_b, b = load b_path in
  let show xs =
    let q1, q3 = Stat.quartiles xs in
    Printf.sprintf "%.4g [%.4g %.4g] n=%d" (Stat.median xs) q1 q3 (List.length xs)
  in
  Printf.printf "%-8s %-12s %-30s %-30s %6s  %s\n" "workload" "metric" "A median [q1 q3]"
    "B median [q1 q3]" "B won" "verdict";
  let worse = ref false in
  List.iter
    (fun w ->
       if List.mem w order_b then
         List.iter
           (fun (name, higher, bound) ->
              let xa = a w name and xb = b w name in
              if xa <> [] && xb <> [] then begin
                let v, wins, pairs = verdict ~higher ~bound xa xb in
                if v = "worse" then worse := true;
                Printf.printf "%-8s %-12s %-30s %-30s %6s  %s\n" w name (show xa) (show xb)
                  (Printf.sprintf "%d/%d" wins pairs) v
              end)
           metrics)
    order_a;
  if !worse then 1 else 0
