(* nidsbench: closed-loop throughput, open-loop alert latency and a
   traced per-layer breakdown of the NIDS over seeded workloads.

     nidsbench --workload NAME --seed N --generate DIR
     nidsbench --workload NAME --seed N --seconds S --trace 0|1
               --inputs DIR [--spans FILE]
     nidsbench --self-test

   Human-readable lines first; the last line of standard output is one
   JSON object {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end set, with --trace 1 the
   per-layer set.  A failed correctness check prints correct=false with
   no metrics and exits 1. *)

let now = Unix.gettimeofday
(* The self-test prints only its verdicts. *)
let quiet = ref false
let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt

(* ------------------------------------------------------------------ *)
(* Metric catalogue: name and unit of everything a run can print. *)

let end_to_end =
  [
    ("throughput_pps", "pkt/s");
    ("payload_mb_per_s", "MB/s");
    ("alert_latency_p50_ms", "ms");
    ("alert_latency_p99_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("ingest.ns_per_packet", "ns");
    ("ingest.errors", "count");
    ("classify.ns_per_packet", "ns");
    ("classify.suspicious_ratio", "ratio");
    ("extract.ns_per_byte", "ns/B");
    ("extract.pass_ratio", "ratio");
    ("extract.frame_bytes_ratio", "ratio");
    ("x86.decode_ns_per_byte", "ns/B");
    ("ir.trace_ns_per_frame_byte", "ns/B");
    ("ir.words_per_frame_byte", "words/B");
    ("ir.memo_hit_ratio", "ratio");
    ("semantic.scan_ns_per_frame_byte", "ns/B");
    ("semantic.words_per_frame_byte", "words/B");
    ("semantic.self_share", "ratio");
    ("semantic.hit_ratio", "ratio");
    ("confirm.static_ns_per_hit", "ns");
    ("confirm.static_refuted_ratio", "ratio");
    ("confirm.emulate_ns_per_hit", "ns");
    ("confirm.emulator_avoided_ratio", "ratio");
    ("pipeline.vcache_hit_ratio", "ratio");
    ("pipeline.hit_ns", "ns");
    ("pipeline.miss_ns", "ns");
    ("pipeline.vcache_insert_ratio", "ratio");
    ("parallel.scaling", "ratio");
    ("parallel.admission_wait_p50_ms", "ms");
    ("parallel.shed", "count");
    ("parallel.worker_failures", "count");
    ("parallel.domains", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.unaccounted_share", "ratio");
    ("openloop.late_p99_ms", "ms");
    ("openloop.late_max_ms", "ms");
    ("failed_ratio", "ratio");
    ("warmup.first_pass_ratio", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_of o =
  let metrics =
    List.map
      (fun (n, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) (unit_of n))
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " metrics)

(* Closed passes discarded before the timed ones: at least one, and all
   that start within this many seconds of the first (one second in a
   run of 20 s or more). *)
let warmup_s seconds = Float.min 1.0 (seconds /. 20.0)

(* Alerting records the open loop offers at least, unless its longest
   share of the run ends first: a p99 with 15 samples beyond it. *)
let open_alert_target = 1500

let ms s = s *. 1000.0
let ns s = s *. 1e9

(* What is wrong with one pass's alerts, given the labels of the first
   [offered] records it was fed and the ground-truth count of alerting
   packets; [] when nothing is. *)
let truth_errors ~expected ~offered (cap : Gen.capture) (alerts : Passes.alerts) =
  let missed = ref 0 and false_alerts = ref 0 and decoy = ref 0 and unconfirmed = ref 0 in
  Array.iteri
    (fun i label ->
      if i < offered then
        match (Hashtbl.find_opt alerts i, label) with
        | None, l when Gen.must_alert l -> incr missed
        | Some _, Gen.Decoy -> incr decoy
        | Some _, Gen.Benign -> incr false_alerts
        | Some tpls, Gen.Decoder when not (List.for_all snd tpls) -> incr unconfirmed
        | _ -> ())
    cap.Gen.labels;
  List.filter_map Fun.id
    [
      (let n = Hashtbl.length alerts in
       if n <> expected then Some (Printf.sprintf "%d alerting packets, ground truth %d" n expected)
       else None);
      (if !missed > 0 then Some (Printf.sprintf "%d attack packets raised no alert" !missed) else None);
      (if !false_alerts > 0 then Some (Printf.sprintf "%d benign packets alerted" !false_alerts)
       else None);
      (if !decoy > 0 then Some (Printf.sprintf "%d decoys alerted" !decoy) else None);
      (if !unconfirmed > 0 then Some (Printf.sprintf "%d decoders left unconfirmed" !unconfirmed)
       else None);
    ]

(* Per alerting record, its sorted distinct templates: the verdicts two
   passes must agree on. *)
let verdicts tbl templates_of =
  Hashtbl.fold (fun k v acc -> (k, List.sort_uniq compare (templates_of v)) :: acc) tbl []
  |> List.sort compare

(* [miscount] is added to every closed-trace ground-truth count; the
   self-test sets it to show that a wrong count fails the run. *)
let run ?(miscount = 0) ?spans ~seconds ~trace ~seed (w : Gen.t) =
  let name = w.Gen.name in
  let checks = ref [] in
  let check name ok detail =
    checks := (name, ok) :: !checks;
    say "check %-34s %s%s" name (if ok then "ok" else "FAILED") (if ok then "" else ": " ^ detail)
  in
  let run_start = now () in
  (* start from a collected heap: loading the inputs left garbage *)
  Gc.compact ();
  let domains = max 1 (Domain.recommended_domain_count () - 1) in
  say "nidsbench workload=%s seed=%d seconds=%g trace=%b domains=%d (nproc %d)" name seed
    seconds trace domains (Domain.recommended_domain_count ());
  say "inputs: %d closed / %d open records, %d alerting in the closed trace"
    (Array.length w.Gen.closed.Gen.labels)
    (Array.length w.Gen.open_.Gen.labels)
    w.Gen.expected_alerts;
  (* set-up: the configuration the engine validates and the pipeline it
     builds per worker.  Rounds are spread over the whole run, so the
     median sees the host at every point the passes did. *)
  let setup_rounds = ref [] in
  let sample_setup rounds =
    setup_rounds := Passes.setup ~rounds ~per_round:20 w.Gen.cfg @ !setup_rounds
  in
  sample_setup 11;
  (* Closed passes replay the slices of the closed trace in turn.  Every
     pass is checked against the ground truth as it ends; only the first
     pass's alerts are kept, for the traced comparison, which replays
     the first slice. *)
  let slices = Gen.slices w in
  let n_slices = Array.length slices in
  let closed_errors = ref [] in
  let next = ref 0 in
  let closed_pass () =
    let k = !next mod n_slices in
    incr next;
    let cap = slices.(k) in
    let r, alerts = Passes.closed ~domains w cap in
    let offered = Array.length cap.Gen.labels in
    (match
       truth_errors ~expected:(Gen.count_alerting cap.Gen.labels + miscount) ~offered cap alerts
     with
    | [] -> ()
    | errs -> closed_errors := errs);
    (k, r, alerts)
  in
  (* The first pass grows the major heap; it is discarded, and so is
     every further pass that starts within [warmup_s seconds] of it, so
     that the timed passes start from a host and heap that are settled. *)
  let warm_start = now () in
  let _, warm, first_alerts = closed_pass () in
  let rec settle acc =
    if now () -. warm_start >= warmup_s seconds then acc
    else
      let _, r, _ = closed_pass () in
      settle (r :: acc)
  in
  let warm_rest = settle [] in
  (* The warm-up, the closed loop and then the open loop share the first
     [budget] of the run.  The open loop offers records for at least
     [open_min] and at most [open_max] of the run, and in between up to
     the one that makes [open_alert_target] alerting records.  It spans
     seconds, so one short window of a busy host cannot hold all of it;
     it is paced, so its length is known before it starts, and the
     closed loop gets the rest. *)
  let budget, open_min, open_max = if trace then (0.5, 0.15, 0.25) else (0.9, 0.2, 0.35) in
  let count =
    let labels = w.Gen.open_.Gen.labels in
    let records share = int_of_float (share *. seconds /. w.Gen.open_.Gen.interval) in
    let cap = min (Array.length labels) (records open_max) in
    let least = records open_min in
    let rec prefix i n =
      if i >= cap || (n >= open_alert_target && i >= least) then i
      else prefix (i + 1) (if Gen.must_alert labels.(i) then n + 1 else n)
    in
    prefix 0 0
  in
  let closed_until =
    run_start +. (budget *. seconds) -. (float_of_int count *. w.Gen.open_.Gen.interval)
  in
  (* at least 3 passes, and at least one per slice *)
  let rec passes ~until acc =
    if List.length acc >= max 3 n_slices && now () >= until then List.rev acc
    else begin
      let k, r, _ = closed_pass () in
      sample_setup 3;
      passes ~until ((k, r) :: acc)
    end
  in
  let closed = passes ~until:closed_until [] in
  let op, open_alerts = Passes.open_loop ~domains ~count w in
  sample_setup 11;
  (* Per slice, the median of its passes; the closed loop's rates are
     the slices' packets and bytes over the sum of their median times,
     so every slice of the trace weighs in by its size. *)
  let slice_median f =
    Array.init n_slices (fun k ->
        Stat.median
          (Array.of_list (List.filter_map (fun (j, r) -> if j = k then Some (f r) else None) closed)))
  in
  let total = Array.fold_left ( +. ) 0.0 in
  let slice_s = slice_median (fun r -> r.Passes.seconds) in
  let total_s = total slice_s in
  let slice_processed = slice_median (fun r -> float_of_int r.Passes.processed) in
  let pps = total slice_processed /. total_s in
  let mbps = total (slice_median (fun r -> float_of_int r.Passes.payload_bytes)) /. 1e6 /. total_s in
  let pass_pps =
    Array.of_list
      (List.map (fun (_, r) -> float_of_int r.Passes.processed /. r.Passes.seconds) closed)
  in
  say "warm-up: first pass %.3f s, %.2fx a timed pass of its slice; %d passes discarded"
    warm.Passes.seconds (warm.Passes.seconds /. slice_s.(0)) (1 + List.length warm_rest);
  say "closed loop: %d passes over %d slice(s) of %d packets; %.0f pkt/s, %.3f MB/s (per-pass pkt/s median %.0f, min %.0f, max %.0f)"
    (List.length closed) n_slices w.Gen.pass_packets pps mbps (Stat.median pass_pps)
    (Array.fold_left Float.min infinity pass_pps) (Stat.max_of pass_pps);
  say "closed loop pkt/s per pass: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") pass_pps)));
  check "closed passes match ground truth" (!closed_errors = []) (String.concat "; " !closed_errors);
  let setup_s = Stat.median (Array.of_list !setup_rounds) in
  say "setup: %.2f us per Config.validate + Pipeline.create (median of %d rounds of 20)"
    (setup_s *. 1e6) (List.length !setup_rounds);
  let lat_p50 = ms (Stat.quantile op.Passes.latencies 0.5) in
  let lat_p99 = ms (Stat.quantile op.Passes.latencies 0.99) in
  let late_p99 = ms (Stat.quantile op.Passes.lateness 0.99) in
  let late_max = ms (Stat.max_of op.Passes.lateness) in
  (* held: for 99% of packets the generator slipped by less than the
     median latency it measures.  An engine that cannot keep up with the
     rate blocks the feeder, and the slip then grows with the backlog
     past every latency it measures. *)
  let held = late_p99 < lat_p50 in
  say "open loop: %d packets offered at %.0f pkt/s over %.2f s; %d alerting packets"
    op.Passes.offered (1.0 /. w.Gen.open_.Gen.interval) op.Passes.seconds
    (Array.length op.Passes.latencies);
  say "open loop: alert latency p50 %.3f ms, p99 %.3f ms (n=%d)" lat_p50 lat_p99
    (Array.length op.Passes.latencies);
  say "open loop: generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms — schedule %s"
    (ms (Stat.median op.Passes.lateness)) late_p99 late_max
    (if held then "held" else "NOT HELD");
  check "open loop held its schedule" held
    (Printf.sprintf "generator p99 lateness %.3f ms >= alert latency p50 %.3f ms" late_p99 lat_p50);
  let open_errors =
    truth_errors
      ~expected:(Gen.count_alerting (Array.sub w.Gen.open_.Gen.labels 0 op.Passes.offered))
      ~offered:op.Passes.offered w.Gen.open_ open_alerts
  in
  check "open loop matches ground truth" (open_errors = []) (String.concat "; " open_errors);
  let loops = (warm :: warm_rest) @ List.map snd closed @ [ op ] in
  let attempted = List.fold_left (fun a r -> a + r.Passes.offered) 0 loops in
  let failed = List.fold_left (fun a r -> a + Passes.failed r) 0 loops in
  let sum f = List.fold_left (fun a r -> a + f r) 0 loops in
  say "accounting: %d offered, %d ingest errors, %d shed, %d worker failures" attempted
    (sum (fun r -> r.Passes.ingest_errors)) (sum (fun r -> r.Passes.shed))
    (sum (fun r -> r.Passes.worker_failures));
  let peak = Passes.peak_rss_bytes () /. 1e6 in
  let e2e =
    [
      ("throughput_pps", pps);
      ("payload_mb_per_s", mbps);
      ("alert_latency_p50_ms", lat_p50);
      ("alert_latency_p99_ms", lat_p99);
      ("setup_s", setup_s);
      ("peak_rss_mb", peak);
    ]
  in
  let layer_metrics =
    if not trace then []
    else begin
      let first = slices.(0) in
      let labels = first.Gen.labels in
      let expected = Gen.count_alerting labels + miscount in
      let rec singles acc deadline =
        if acc <> [] && now () >= deadline then acc
        else singles (Passes.single w first :: acc) deadline
      in
      let sg = singles [] (now () +. (0.15 *. seconds)) in
      check "single-pipeline alert count = ground truth"
        (List.for_all (fun (_, n) -> n = expected) sg)
        (Printf.sprintf "ground truth %d; alerting packets per pass: %s" expected
           (String.concat " " (List.map (fun (_, n) -> string_of_int n) sg)));
      let single_s = Stat.median (Array.of_list (List.map fst sg)) in
      let single_pps = float_of_int (Array.length labels) /. single_s in
      let tp = Traced.run w first in
      (match spans with Some path -> Traced.write_spans tp path | None -> ());
      let c = tp.Traced.counts in
      let tr = tp.Traced.tracer in
      let time l = Traced.time_of tr (fun x -> x = l) in
      let words l = Traced.words_of tr (fun x -> x = l) in
      let calls l = Traced.calls_of tr (fun x -> x = l) in
      let fb = float_of_int c.Traced.frame_bytes in
      let scan = time Traced.Semantic and walk = time Traced.Ir in
      let engine = Traced.engine_time_per_record tp in
      let alerting =
        Hashtbl.fold
          (fun i t acc -> if Gen.must_alert labels.(i) then t :: acc else acc)
          engine []
      in
      let analysed = if alerting <> [] then alerting else Hashtbl.fold (fun _ t a -> t :: a) engine [] in
      let analysis_p50 = ms (Stat.median (Array.of_list analysed)) in
      let f = float_of_int in
      (* verdict equivalence: traced pass vs the untraced engine *)
      let untraced = verdicts first_alerts (List.map fst) in
      check "traced verdicts = untraced verdicts"
        (verdicts tp.Traced.alerts Fun.id = untraced)
        (Printf.sprintf "%d traced vs %d untraced alerting packets"
           (Hashtbl.length tp.Traced.alerts) (List.length untraced));
      check "layer decomposition = pipeline verdict" (c.Traced.decomposition_mismatches = 0)
        (Printf.sprintf "%d misses disagree" c.Traced.decomposition_mismatches);
      say "single pipeline: %.3f s per pass (%d passes), %.0f pkt/s" single_s (List.length sg)
        single_pps;
      say "traced pass: %.3f s, %d spans, overhead %.2fx the untraced single-pipeline pass"
        tp.Traced.seconds tr.Traced.n (tp.Traced.seconds /. single_s);
      say "%-10s %8s %10s %7s" "self time" "calls" "ms" "share";
      List.iter
        (fun (m, t) ->
          say "%-10s %8d %10.2f %6.1f%%" m
            (Traced.calls_of tr (fun l -> Traced.module_of l = Some m))
            (ms t) (100.0 *. t /. tp.Traced.seconds))
        (Traced.self_times tp);
      let rest = Traced.unaccounted tp in
      say "%-10s %8s %10.2f %6.1f%%" "(outside)" "" (ms rest) (100.0 *. rest /. tp.Traced.seconds);
      let ratio = Stat.ratio in
      let hits = f c.Traced.hits and misses = f c.Traced.misses in
      [
        ("ingest.ns_per_packet", ns (ratio (time Traced.Ingest) (f c.Traced.records)));
        ("ingest.errors", f (c.Traced.ingest_errors + sum (fun r -> r.Passes.ingest_errors)));
        ("classify.ns_per_packet", ns (ratio (time Traced.Classify) (f c.Traced.classified)));
        ("classify.suspicious_ratio", ratio (f c.Traced.suspicious) (f c.Traced.classified));
        ("extract.ns_per_byte", ns (ratio (time Traced.Extract) (f c.Traced.miss_payload_bytes)));
        ("extract.pass_ratio", ratio (f c.Traced.passed) misses);
        ("extract.frame_bytes_ratio", ratio fb (f c.Traced.miss_payload_bytes));
        ("x86.decode_ns_per_byte", ns (ratio (time Traced.X86) fb));
        ("ir.trace_ns_per_frame_byte", ns (ratio walk fb));
        ("ir.words_per_frame_byte", ratio (words Traced.Ir) fb);
        ("ir.memo_hit_ratio", ratio (f c.Traced.memo_hits) (f c.Traced.memo_lookups));
        ("semantic.scan_ns_per_frame_byte", ns (ratio scan fb));
        ("semantic.words_per_frame_byte", ratio (words Traced.Semantic) fb);
        ("semantic.self_share", ratio (scan -. walk) scan);
        ("semantic.hit_ratio", ratio (f c.Traced.matched_frames) (f c.Traced.frames));
        ("confirm.static_ns_per_hit", ns (ratio (time Traced.Confirm_static) (f c.Traced.static_runs)));
        ("confirm.static_refuted_ratio", ratio (f c.Traced.static_refuted) (f c.Traced.static_runs));
        ("confirm.emulate_ns_per_hit", ns (ratio (time Traced.Confirm_emulate) (f c.Traced.emulator_runs)));
        ("confirm.emulator_avoided_ratio", ratio (f c.Traced.static_refuted) (f c.Traced.confirm_hits));
        ("pipeline.vcache_hit_ratio", ratio hits (hits +. misses));
        ("pipeline.hit_ns", ns (ratio (time Traced.Pipeline_hit) (f (calls Traced.Pipeline_hit))));
        ("pipeline.miss_ns", ns (ratio (time Traced.Pipeline_miss) (f (calls Traced.Pipeline_miss))));
        ("pipeline.vcache_insert_ratio", ratio (f tp.Traced.vcache_inserts) misses);
        ("parallel.scaling", ratio (slice_processed.(0) /. slice_s.(0)) single_pps);
        ("parallel.admission_wait_p50_ms", lat_p50 -. analysis_p50);
        ("parallel.shed", f (sum (fun r -> r.Passes.shed)));
        ("parallel.worker_failures", f (sum (fun r -> r.Passes.worker_failures)));
        ("parallel.domains", f domains);
        ("trace.overhead_ratio", ratio tp.Traced.seconds single_s);
        ("trace.unaccounted_share", ratio rest tp.Traced.seconds);
        ("openloop.late_p99_ms", late_p99);
        ("openloop.late_max_ms", late_max);
        ("failed_ratio", ratio (f failed) (f attempted));
        ("warmup.first_pass_ratio", ratio warm.Passes.seconds slice_s.(0));
      ]
    end
  in
  let correct = List.for_all snd !checks in
  {
    correct;
    attempted;
    failed;
    metrics = (if not correct then [] else if trace then layer_metrics else e2e);
  }

(* ------------------------------------------------------------------ *)
(* Tiny-size self-test: every workload in both modes prints its whole
   catalogue with units and passes its checks; an injected wrong
   expected-alert count fails the run. *)

let self_test () =
  quiet := true;
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      print_endline ("self-test FAILED: " ^ what)
    end
  in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let w = Gen.make ~scale:0.02 ~seed:7 name in
          let o = run ~seconds:0.4 ~trace ~seed:7 w in
          expect (name ^ ": correct") o.correct;
          expect (name ^ ": attempted") (o.attempted > 0);
          expect (name ^ ": every metric of the catalogue, in order")
            (List.map fst o.metrics = List.map fst (if trace then per_layer else end_to_end)))
        [ false; true ])
    Gen.names;
  let w = Gen.make ~scale:0.02 ~seed:7 "polymorphic_attack" in
  let o = run ~seconds:0.4 ~trace:false ~seed:7 ~miscount:1 w in
  expect "injected wrong alert count fails the run" ((not o.correct) && o.metrics = []);
  if !failures = 0 then print_endline "self-test: ok" else exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" and selftest = ref false in
  let generate = ref "" and inputs = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Gen.names);
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans, "FILE write the traced pass's spans (JSONL)");
      ("--generate", Arg.Set_string generate, "DIR write the workload's inputs to DIR and exit");
      ("--inputs", Arg.Set_string inputs, "DIR load inputs written by --generate (required to measure)");
      ("--self-test", Arg.Set selftest, " tiny-size check of every workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nidsbench --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then self_test ()
  else begin
    if not (List.mem !workload Gen.names) then begin
      prerr_endline ("nidsbench: --workload must be one of " ^ String.concat ", " Gen.names);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "nidsbench: --trace must be 0 or 1";
      exit 2
    end;
    if !generate <> "" then Gen.save (Gen.make ~seed:!seed !workload) !generate
    else if !inputs = "" then begin
      prerr_endline "nidsbench: --inputs DIR (written by --generate) is required";
      exit 2
    end
    else begin
      let w = Gen.load !workload !inputs in
      let o =
        run ~seconds:!seconds ~trace:(!trace = 1) ~seed:!seed
          ?spans:(if !spans = "" then None else Some !spans)
          w
      in
      print_endline (json_of o);
      if not o.correct then exit 1
    end
  end
