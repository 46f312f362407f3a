(* The traced pass: one domain, the first slice of the closed trace
   once (the whole trace on worm_outbreak), each layer's
   public entry point called from here in pipeline order with one span
   per call.  Nothing inside the library is instrumented.

   Per record:
     ingest    Ingest.decode_record
     classify  Classifier.classify (a classifier built from the config
               exactly as Pipeline.create builds its own)
     pipeline  Pipeline.analyze_report_slice — the engine's own analysis,
               split into verdict-cache hit and miss by the cache's hit
               counter
   and on misses only, the analysis again, layer by layer:
     extract   Extractor.suspicious, then Extractor.extract
     x86       Decode.all over each frame (linear sweep)
     semantic  Matcher.scan_report_slice over each frame
     ir        the trace-building walk: Trace.build_cached from every
               offset no earlier trace covered, over one Icache — the
               matcher's own enumeration without its work bound or its
               early exit, so an upper bound on what the scan built; run
               only for frames on which the scan built traces at all.
               The memo hit ratio is not the walk's: it comes from the
               Icache counters the scan itself reports
     confirm   Static_refute.run per hit, then Confirm.run when the
               pre-stage did not refute

   A miss is therefore analysed twice, once inside [pipeline] and once
   in the layer spans; the tracing overhead reported against the
   untraced single-pipeline loop includes that second analysis.  Spans
   live in memory and are written out when the pass ends. *)

open Sanids_util
open Sanids_nids
module Ingest = Sanids_ingest.Ingest
module Pcap = Sanids_pcap.Pcap
module Classifier = Sanids_classify.Classifier
module Extractor = Sanids_extract.Extractor
module Matcher = Sanids_semantic.Matcher
module Icache = Sanids_ir.Icache
module Trace = Sanids_ir.Trace
module Decode = Sanids_x86.Decode
module Confirm = Sanids_confirm.Confirm
module Static_refute = Sanids_confirm.Static_refute
module Registry = Sanids_obs.Registry
module Snapshot = Sanids_obs.Snapshot

let now = Unix.gettimeofday

type layer =
  | Packet  (** root span of one record: no layer, glue only *)
  | Ingest
  | Classify
  | Pipeline_hit
  | Pipeline_miss
  | Extract
  | X86
  | Semantic
  | Ir
  | Confirm_static
  | Confirm_emulate

let layer_name = function
  | Packet -> "packet"
  | Ingest -> "ingest"
  | Classify -> "classify"
  | Pipeline_hit -> "pipeline.hit"
  | Pipeline_miss -> "pipeline.miss"
  | Extract -> "extract"
  | X86 -> "x86"
  | Semantic -> "semantic"
  | Ir -> "ir"
  | Confirm_static -> "confirm.static"
  | Confirm_emulate -> "confirm.emulate"

(* The module a layer's self time is reported under. *)
let module_of = function
  | Packet -> None
  | Ingest -> Some "ingest"
  | Classify -> Some "classify"
  | Pipeline_hit | Pipeline_miss -> Some "pipeline"
  | Extract -> Some "extract"
  | X86 -> Some "x86"
  | Semantic -> Some "semantic"
  | Ir -> Some "ir"
  | Confirm_static | Confirm_emulate -> Some "confirm"

let modules = [ "ingest"; "classify"; "pipeline"; "extract"; "x86"; "ir"; "semantic"; "confirm" ]

type span = {
  layer : layer;
  parent : int;  (** index of the parent span, [-1] for roots *)
  record : int;  (** capture record the span belongs to *)
  t0 : float;
  mutable t1 : float;
  words : float;  (** minor-heap words allocated inside the call *)
}

type tracer = { mutable spans : span array; mutable n : int }

let dummy = { layer = Packet; parent = -1; record = -1; t0 = 0.0; t1 = 0.0; words = 0.0 }

let push tr s =
  if tr.n = Array.length tr.spans then begin
    let bigger = Array.make (2 * tr.n) dummy in
    Array.blit tr.spans 0 bigger 0 tr.n;
    tr.spans <- bigger
  end;
  tr.spans.(tr.n) <- s;
  tr.n <- tr.n + 1;
  tr.n - 1

let span tr layer ~parent ~record f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let words = Gc.minor_words () -. w0 in
  ignore (push tr { layer; parent; record; t0; t1; words });
  r

let duration s = s.t1 -. s.t0

(* The matcher's entry enumeration, building traces only. *)
let walk code =
  let n = String.length code in
  let cache = Icache.create code in
  let covered = Bytes.make n '\000' in
  for o = 0 to n - 1 do
    if Bytes.get covered o = '\000' then
      Array.iter
        (fun (s : Trace.step) ->
          if s.Trace.off >= 0 && s.Trace.off < n then Bytes.set covered s.Trace.off '\001')
        (Trace.build_cached cache ~entry:o)
  done

(* Counts taken at the layer boundaries, next to the spans. *)
type counts = {
  mutable records : int;
  mutable classified : int;
  mutable suspicious : int;
  mutable hits : int;
  mutable misses : int;
  mutable miss_payload_bytes : int;  (** bytes offered to extraction *)
  mutable passed : int;  (** misses past Extractor.suspicious *)
  mutable frames : int;
  mutable frame_bytes : int;
  mutable matched_frames : int;
  mutable memo_hits : int;
  mutable memo_lookups : int;
  mutable confirm_hits : int;  (** deduplicated matcher hits sent to confirmation *)
  mutable static_runs : int;
  mutable static_refuted : int;
  mutable emulator_runs : int;
  mutable decomposition_mismatches : int;
  mutable ingest_errors : int;
}

type result = {
  seconds : float;
  tracer : tracer;
  counts : counts;
  alerts : (int, string list) Hashtbl.t;  (** record -> alertable templates *)
  vcache_inserts : int;
}

let refuted = function
  | Some (Confirm.Refuted _ | Confirm.Statically_refuted _) -> true
  | Some _ | None -> false

(* Analyse a verdict-cache miss again, one layer at a time; returns the
   templates this decomposition would alert on, for comparison with the
   pipeline's own verdicts. *)
let decompose tr c (cfg : Config.t) scan_reg ~parent ~record payload =
  let sp layer f = span tr layer ~parent ~record f in
  c.miss_payload_bytes <- c.miss_payload_bytes + Slice.length payload;
  let frames =
    if cfg.Config.extraction_enabled then
      sp Extract (fun () ->
          if Extractor.suspicious payload then Some (Extractor.extract payload) else None)
    else Some [ { Extractor.off = 0; data = payload; origin = Extractor.Raw_binary } ]
  in
  let frames = match frames with Some fs -> c.passed <- c.passed + 1; fs | None -> [] in
  let memo_hits = Registry.counter scan_reg Matcher.decode_memo_hits in
  let memo_misses = Registry.counter scan_reg Matcher.decode_memo_misses in
  let hits =
    List.concat_map
      (fun (f : Extractor.frame) ->
        let code = Slice.to_string f.Extractor.data in
        c.frames <- c.frames + 1;
        c.frame_bytes <- c.frame_bytes + String.length code;
        ignore (sp X86 (fun () -> Decode.all code));
        let h0 = Registry.counter_value memo_hits and m0 = Registry.counter_value memo_misses in
        let report =
          sp Semantic (fun () ->
              Matcher.scan_report_slice ~metrics:scan_reg ~templates:cfg.Config.templates
                f.Extractor.data)
        in
        (* the scan's own Icache hits and misses, as it reports them *)
        let h = Registry.counter_value memo_hits - h0
        and m = Registry.counter_value memo_misses - m0 in
        c.memo_hits <- c.memo_hits + h;
        c.memo_lookups <- c.memo_lookups + h + m;
        if h + m > 0 then sp Ir (fun () -> walk code);
        if report.Matcher.results <> [] then c.matched_frames <- c.matched_frames + 1;
        List.map (fun r -> (code, r)) report.Matcher.results)
      frames
  in
  (* the pipeline keeps one verdict per template name across frames *)
  let seen = Hashtbl.create 8 in
  let hits =
    List.filter
      (fun (_, (r : Matcher.result)) ->
        if Hashtbl.mem seen r.Matcher.template then false
        else begin
          Hashtbl.add seen r.Matcher.template ();
          true
        end)
      hits
  in
  List.filter_map
    (fun (code, (r : Matcher.result)) ->
      let outcome =
        match cfg.Config.confirm with
        | None -> None
        | Some config ->
            c.confirm_hits <- c.confirm_hits + 1;
            let entry = (Matcher.evidence r).Matcher.ev_entry in
            let static =
              if cfg.Config.static_refute then begin
                c.static_runs <- c.static_runs + 1;
                sp Confirm_static (fun () -> Static_refute.run ~config ~code ~entry ())
              end
              else None
            in
            Some
              (match static with
              | Some why ->
                  c.static_refuted <- c.static_refuted + 1;
                  Confirm.Statically_refuted why
              | None ->
                  c.emulator_runs <- c.emulator_runs + 1;
                  sp Confirm_emulate (fun () -> Confirm.run ~config ~code ~entry ()))
      in
      if refuted outcome then None else Some r.Matcher.template)
    hits

let run (w : Gen.t) (cap : Gen.capture) =
  let cfg = w.Gen.cfg in
  let tr = { spans = Array.make 4096 dummy; n = 0 } in
  let c =
    {
      records = 0; classified = 0; suspicious = 0; hits = 0; misses = 0;
      miss_payload_bytes = 0; passed = 0; frames = 0; frame_bytes = 0;
      matched_frames = 0; memo_hits = 0; memo_lookups = 0;
      confirm_hits = 0; static_runs = 0; static_refuted = 0; emulator_runs = 0;
      decomposition_mismatches = 0; ingest_errors = 0;
    }
  in
  let nids = Pipeline.create cfg in
  let classifier =
    Classifier.create ~honeypots:cfg.Config.honeypots ~unused:cfg.Config.unused
      ~scan_threshold:cfg.Config.scan_threshold
      ~enabled:cfg.Config.classification_enabled ()
  in
  let vhits = Registry.counter (Pipeline.registry nids) "sanids_verdict_cache_hits_total" in
  let scan_reg = Registry.create () in
  let alerts = Hashtbl.create 1024 in
  let t_start = now () in
  let file =
    span tr Ingest ~parent:(-1) ~record:(-1) (fun () -> Passes.records cap.Gen.pcap)
  in
  List.iteri
    (fun i r ->
      c.records <- c.records + 1;
      let root =
        push tr { layer = Packet; parent = -1; record = i; t0 = now (); t1 = 0.0; words = 0.0 }
      in
      let sp layer f = span tr layer ~parent:root ~record:i f in
      (match sp Ingest (fun () -> Ingest.decode_record ~linktype:file.Pcap.linktype r) with
      | Error _ -> c.ingest_errors <- c.ingest_errors + 1
      | Ok p -> (
          c.classified <- c.classified + 1;
          match sp Classify (fun () -> Classifier.classify classifier p) with
          | Classifier.Benign -> ()
          | Classifier.Suspicious _ ->
              c.suspicious <- c.suspicious + 1;
              let payload = Sanids_net.Packet.payload p in
              if Slice.length payload >= cfg.Config.min_payload then begin
                let before = Registry.counter_value vhits in
                let w0 = Gc.minor_words () in
                let t0 = now () in
                let report = Pipeline.analyze_report_slice nids payload in
                let t1 = now () in
                let hit = Registry.counter_value vhits > before in
                ignore
                  (push tr
                     {
                       layer = (if hit then Pipeline_hit else Pipeline_miss);
                       parent = root;
                       record = i;
                       t0;
                       t1;
                       words = Gc.minor_words () -. w0;
                     });
                let templates =
                  List.filter_map
                    (fun (v : Pipeline.verdict) ->
                      if refuted v.Pipeline.confirmation then None
                      else Some v.Pipeline.match_.Matcher.template)
                    report.Pipeline.verdicts
                in
                if templates <> [] then Hashtbl.replace alerts i templates;
                if hit then c.hits <- c.hits + 1
                else begin
                  c.misses <- c.misses + 1;
                  let mine = decompose tr c cfg scan_reg ~parent:root ~record:i payload in
                  if List.sort compare mine <> List.sort compare templates then
                    c.decomposition_mismatches <- c.decomposition_mismatches + 1
                end
              end));
      tr.spans.(root).t1 <- now ())
    file.Pcap.records;
  let seconds = now () -. t_start in
  let snap = Pipeline.snapshot nids in
  let vcache_inserts =
    int_of_float (Snapshot.gauge_value snap "sanids_verdict_cache_entries")
    + Snapshot.counter_value snap "sanids_verdict_cache_evictions_total"
  in
  { seconds; tracer = tr; counts = c; alerts; vcache_inserts }

(* ------------------------------------------------------------------ *)
(* Aggregation over the recorded spans. *)

let fold tr f init =
  let acc = ref init in
  for k = 0 to tr.n - 1 do
    acc := f !acc tr.spans.(k)
  done;
  !acc

let time_of tr pred = fold tr (fun a s -> if pred s.layer then a +. duration s else a) 0.0
let words_of tr pred = fold tr (fun a s -> if pred s.layer then a +. s.words else a) 0.0
let calls_of tr pred = fold tr (fun a s -> if pred s.layer then a + 1 else a) 0

(* Self time per module.  Layer spans have no children (they are all
   siblings under their record's root span), so a layer's self time is
   its spans' summed duration; what no layer span covers is the
   remainder. *)
let self_times r =
  List.map
    (fun m -> (m, time_of r.tracer (fun l -> module_of l = Some m)))
    modules

let unaccounted r =
  r.seconds -. List.fold_left (fun a (_, t) -> a +. t) 0.0 (self_times r)

(* Per alerting record: its ingest + classify + pipeline span time, the
   work the engine does for that packet. *)
let engine_time_per_record r =
  let per = Hashtbl.create 1024 in
  ignore
    (fold r.tracer
       (fun () s ->
         match s.layer with
         | Ingest | Classify | Pipeline_hit | Pipeline_miss when s.record >= 0 ->
             let prev = Option.value ~default:0.0 (Hashtbl.find_opt per s.record) in
             Hashtbl.replace per s.record (prev +. duration s)
         | _ -> ())
       ());
  per

let write_spans r path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = if r.tracer.n > 0 then r.tracer.spans.(0).t0 else 0.0 in
      for k = 0 to r.tracer.n - 1 do
        let s = r.tracer.spans.(k) in
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"packet\":%d,\"span\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"minor_words\":%.0f}\n"
          k s.parent s.record (layer_name s.layer)
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. base) *. 1e6)
          s.words
      done)
