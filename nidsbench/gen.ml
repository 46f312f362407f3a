(* Seeded workload generation.

   Every workload is a list of labelled packets, re-timestamped onto the
   open-loop schedule (packet [i] is due [i * interval] seconds after the
   loop starts) and encoded as pcap bytes.  The engine under test only
   ever sees those bytes; the labels stay on the benchmark side as the
   ground truth its checks compare against. *)

open Sanids_util
open Sanids_net
open Sanids_nids
module Benign_gen = Sanids_workload.Benign_gen
module Worm_gen = Sanids_workload.Worm_gen
module Adversarial = Sanids_workload.Adversarial
module Admmutate = Sanids_polymorph.Admmutate
module Clet = Sanids_polymorph.Clet

type label =
  | Benign  (** must never alert *)
  | Exploit  (** Code Red II delivery: must alert *)
  | Decoder  (** polymorphic decoder: must alert, confirmed *)
  | Decoy  (** statically matching decoy: must be refuted, never alert *)
  | Canary  (** repeated Code Red II request probing benign-floor latency *)

let must_alert = function
  | Exploit | Decoder | Canary -> true
  | Benign | Decoy -> false

type capture = {
  pcap : string;  (** record [i] carries timestamp [i * interval] *)
  labels : label array;  (** one per record *)
  interval : float;  (** open-loop spacing in seconds (1 / offered rate) *)
}

type t = {
  name : string;
  cfg : Config.t;
  closed : capture;  (** the trace the closed loop replays, one slice per pass *)
  pass_packets : int;  (** records per closed pass: the slice length *)
  open_ : capture;  (** the trace the open loop offers on its schedule *)
  expected_alerts : int;  (** ground truth: alerting packets in the whole of [closed] *)
}

(* Fixed per-workload sizes.  [scale] shrinks them for the self-test. *)
type sizes = {
  closed_packets : int;  (** closed-loop trace length, a multiple of [pass_packets] *)
  pass_packets : int;  (** records per closed pass *)
  open_packets : int;  (** open-loop trace length *)
  rate : float;  (** open-loop offered rate, packets/s *)
}

let clients = Ipaddr.prefix_of_string "172.16.0.0/16"

(* Servers and the declared unused space are disjoint, so the benign
   floor never trips the scan classifier by accident. *)
let servers = Ipaddr.prefix_of_string "172.17.0.0/17"
let unused = Ipaddr.prefix_of_string "172.17.200.0/21"

let config_of name =
  match name with
  | "benign_floor" -> Config.default |> Config.with_classification false
  | "worm_outbreak" -> Config.default |> Config.with_unused [ unused ]
  | _ ->
      Config.default
      |> Config.with_classification false
      |> Config.with_confirm (Some Sanids_confirm.Confirm.default_config)
      |> Config.with_static_refute true

let pick rng prefix = Ipaddr.nth prefix (Rng.int rng (Ipaddr.prefix_size prefix))

let tcp rng payload =
  Packet.build_tcp ~ts:0.0 ~src:(pick rng clients) ~dst:(pick rng servers)
    ~src_port:(1024 + Rng.int rng 60000) ~dst_port:80 payload

let capture ~rate labelled =
  let interval = 1.0 /. rate in
  let packets =
    List.mapi
      (fun i (p, _) -> { p with Packet.ts = float_of_int i *. interval })
      labelled
  in
  {
    pcap = Sanids_pcap.Pcap.encode (Sanids_pcap.Pcap.of_packets packets);
    labels = Array.of_list (List.map snd labelled);
    interval;
  }

let count_alerting labels =
  Array.fold_left (fun n l -> if must_alert l then n + 1 else n) 0 labels

(* ------------------------------------------------------------------ *)
(* benign_floor: the paper's §5.4 mode — classification off, every
   payload analysed, zero alerts.  The floor is built from blocks of 100
   packets holding the generator's default mix exactly — 68 HTTP, 10
   SMTP, 10 DNS, 7 binary uploads, 5 background radiation — shuffled
   within the block, so a seed cannot move the numbers by drawing more
   of the dear binary payloads.  The closed loop is pure floor.  Its
   open loop mixes in one repeated Code Red II request per
   [canary_every] packets: the floor itself never alerts, so alert
   latency there is the latency of an attack riding on that floor.  The
   canary is a verdict-cache hit after its first delivery, so it adds
   almost no analysis work of its own. *)

let canary_every = 8

let floor_block rng =
  let only http smtp dns binary = { Benign_gen.http; smtp; dns; binary } in
  let kinds =
    [ (68, only 1.0 0.0 0.0 0.0); (10, only 0.0 1.0 0.0 0.0); (10, only 0.0 0.0 1.0 0.0);
      (7, only 0.0 0.0 0.0 1.0) ]
  in
  let blk =
    Array.of_list
      (List.concat_map
         (fun (n, mix) ->
           List.init n (fun _ -> Benign_gen.packet ~mix rng ~ts:0.0 ~clients ~servers))
         kinds
      @ List.init 5 (fun _ -> Benign_gen.radiation_packet rng ~ts:0.0 ~servers))
  in
  Rng.shuffle rng blk;
  List.map (fun p -> (p, Benign)) (Array.to_list blk)

let benign_floor rng ~sizes =
  let floor n = List.concat (List.init ((n + 99) / 100) (fun _ -> floor_block rng)) in
  let closed = floor sizes.closed_packets in
  let canary = Sanids_exploits.Code_red.request () in
  let open_ =
    List.mapi
      (fun i lp -> if i mod canary_every = 0 then (tcp rng canary, Canary) else lp)
      (floor sizes.open_packets)
  in
  {
    name = "benign_floor";
    cfg = config_of "benign_floor";
    closed = capture ~rate:sizes.rate closed;
    pass_packets = sizes.pass_packets;
    open_ = capture ~rate:sizes.rate open_;
    expected_alerts = 0;
  }

(* ------------------------------------------------------------------ *)
(* worm_outbreak: a Code Red II outbreak over a benign floor, classified
   over the declared unused space.  Every exploit after the first is a
   verdict-cache hit.  Each infected source scans eight unused addresses
   before its delivery, comfortably past the classifier's threshold of
   five distinct addresses; half the packets are the outbreak's, one in
   eighteen an exploit.  Both loops run the same trace. *)

let worm_outbreak rng ~sizes =
  let scans = 8 in
  let instances = sizes.closed_packets / (2 * (scans + 1)) in
  let benign = sizes.closed_packets - (instances * (scans + 1)) in
  let pkts, truth =
    Worm_gen.code_red_trace rng ~benign ~instances ~scans_per_instance:scans
      ~clients ~servers ~unused ~duration:60.0
  in
  let request = Sanids_exploits.Code_red.request () in
  let labelled =
    List.map
      (fun p ->
        (p, if Packet.payload_string p = request then Exploit else Benign))
      pkts
  in
  let c = capture ~rate:sizes.rate labelled in
  if count_alerting c.labels <> truth.Worm_gen.crii_instances then
    failwith "worm_outbreak: exploit labels disagree with the generator's truth";
  {
    name = "worm_outbreak";
    cfg = config_of "worm_outbreak";
    closed = c;
    pass_packets = Array.length c.labels;
    open_ = c;
    expected_alerts = truth.Worm_gen.crii_instances;
  }

(* ------------------------------------------------------------------ *)
(* polymorphic_attack: classification off, dynamic confirmation with the
   static-refutation pre-stage on.  Fresh, unique ADMmutate (both
   families and staged) and Clet decoders — each a cold matcher run, an
   emulator confirmation and a verdict-cache insert that never hits; a
   small repeated set of decoys that are refuted and therefore never
   cached, so each pays the full matcher again; and benign filler.

   The trace is built from blocks of [block] packets with a fixed
   composition, shuffled within the block, so every whole-block prefix
   has the same mix: decoder kinds differ in cost by more than 2x, and a
   prefix that drew more of the dear ones would make the seed, not the
   code, move the numbers.  The closed loop replays a prefix of the open
   loop's trace. *)

let decoy_set = 8
let decoy_size = 512
let block = 20

let decoder rng k =
  let payload = (Sanids_exploits.Shellcodes.find "classic").Sanids_exploits.Shellcodes.code in
  match k mod 4 with
  | 0 -> (Admmutate.generate ~family:Admmutate.Xor_loop rng ~payload).Admmutate.code
  | 1 -> (Admmutate.generate ~family:Admmutate.Alt_chain rng ~payload).Admmutate.code
  | 2 -> (Admmutate.generate_staged rng ~payload).Admmutate.code
  | _ -> (Clet.generate rng ~payload).Clet.code

let polymorphic_attack rng ~sizes =
  let decoys =
    Array.init decoy_set (fun _ ->
        Adversarial.payload ~kind:Adversarial.Decoy_decoder ~size:decoy_size rng)
  in
  (* per block: three decoders of each of the four kinds, two decoys,
     six benign *)
  let make_block b =
    let blk =
      Array.init block (fun j ->
          if j < 12 then (tcp rng (decoder rng j), Decoder)
          else if j < 14 then (tcp rng decoys.(((2 * b) + j) mod decoy_set), Decoy)
          else (tcp rng (Benign_gen.payload rng), Benign))
    in
    Rng.shuffle rng blk;
    Array.to_list blk
  in
  let blocks n = (n + block - 1) / block in
  let all =
    List.concat
      (List.init (blocks (max sizes.open_packets sizes.closed_packets)) make_block)
  in
  let closed = List.filteri (fun i _ -> i < sizes.closed_packets) all in
  let closed = capture ~rate:sizes.rate closed in
  {
    name = "polymorphic_attack";
    cfg = config_of "polymorphic_attack";
    closed;
    pass_packets = sizes.pass_packets;
    open_ = capture ~rate:sizes.rate all;
    expected_alerts = count_alerting closed.labels;
  }

(* ------------------------------------------------------------------ *)

(* Offered rates sit at about a third of the one-worker engine capacity
   measured on a 2-core x86-64 host (see README.md in this directory),
   so a host slowed to half speed by its neighbours still keeps up with
   the schedule instead of building a backlog.

   A closed pass takes a sixth to two thirds of a second there.  The
   host's neighbours make every pass in a window of several seconds
   faster or slower by a third or more; with short passes a run times
   dozens to hundreds of them, and a window that covers a minority of
   them barely moves their medians.  On benign_floor and
   polymorphic_attack a pass replays one slice of a longer closed
   trace, taking the slices in turn: what a packet costs varies with
   its random content, and one short trace would let the seed move the
   numbers by up to a tenth (2,000 benign packets: quartiles 11% apart
   over ten seeds; 8,000: 5%).  worm_outbreak replays its whole trace
   in every pass, because the classifier must see each source's scans
   before its exploit.  Open traces cover the open loop of a 45-second
   run with over a thousand alerting packets. *)
let workloads =
  [
    ( "benign_floor",
      ( { closed_packets = 32000; pass_packets = 2000; open_packets = 34000; rate = 1500.0 },
        benign_floor ) );
    ( "worm_outbreak",
      ( { closed_packets = 100000; pass_packets = 100000; open_packets = 100000; rate = 12000.0 },
        worm_outbreak ) );
    ( "polymorphic_attack",
      ( { closed_packets = 600; pass_packets = 200; open_packets = 2800; rate = 120.0 },
        polymorphic_attack ) );
  ]

let names = List.map fst workloads

(* @raise Not_found on a name not in {!names}. *)
let make ?(scale = 1.0) ~seed name =
  let s, build = List.assoc name workloads in
  let scaled n = max 40 (int_of_float (float_of_int n *. scale)) in
  let pass_packets = scaled s.pass_packets in
  let sizes =
    {
      s with
      closed_packets = pass_packets * (s.closed_packets / s.pass_packets);
      pass_packets;
      open_packets = scaled s.open_packets;
    }
  in
  (* distinct streams per workload: one seed never reuses another
     workload's draws *)
  build (Rng.create (Int64.of_int ((seed * 1_000_003) + Hashtbl.hash name))) ~sizes

(* The closed trace cut into the slices that closed passes replay in
   turn.  Each slice is a capture of its own whose record [i] carries
   timestamp [i * interval], so alerts map to its own labels; cutting
   it happens once, outside every timed pass. *)
let slices t =
  let n = Array.length t.closed.labels in
  if t.pass_packets >= n then [| t.closed |]
  else begin
    let module Pcap = Sanids_pcap.Pcap in
    let recs = Array.of_list (Pcap.decode_exn t.closed.pcap).Pcap.records in
    Array.init (n / t.pass_packets) (fun k ->
        let lo = k * t.pass_packets in
        let records =
          List.init t.pass_packets (fun i ->
              { (recs.(lo + i)) with Pcap.ts = float_of_int i *. t.closed.interval })
        in
        {
          t.closed with
          pcap = Pcap.encode records;
          labels = Array.sub t.closed.labels lo t.pass_packets;
        })
  end

(* ------------------------------------------------------------------ *)
(* Files.  Generation runs in its own process, so the measuring
   process's peak RSS is the engine's and not the generator's: [save]
   writes the two captures and a small text file of labels, [load]
   reads them back.  The engine under test is only ever handed the
   capture bytes. *)

let label_char = function
  | Benign -> 'B'
  | Exploit -> 'E'
  | Decoder -> 'D'
  | Decoy -> 'Y'
  | Canary -> 'C'

let label_of_char = function
  | 'B' -> Benign
  | 'E' -> Exploit
  | 'D' -> Decoder
  | 'Y' -> Decoy
  | 'C' -> Canary
  | c -> failwith (Printf.sprintf "bad label %C" c)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let labels_string labels = String.init (Array.length labels) (fun i -> label_char labels.(i))

(* A workload whose loops share one trace writes it once. *)
let save t dir =
  let path ext = Filename.concat dir (t.name ^ ext) in
  write_file (path ".closed.pcap") t.closed.pcap;
  if t.open_ != t.closed then write_file (path ".open.pcap") t.open_.pcap;
  write_file (path ".labels")
    (Printf.sprintf "%h %h %d %d\n%s\n%s\n" t.closed.interval t.open_.interval t.pass_packets
       t.expected_alerts
       (labels_string t.closed.labels) (labels_string t.open_.labels))

let load name dir =
  let path ext = Filename.concat dir (name ^ ext) in
  match String.split_on_char '\n' (read_file (path ".labels")) with
  | header :: closed_labels :: open_labels :: _ ->
      let ci, oi, pass_packets, expected =
        Scanf.sscanf header "%h %h %d %d" (fun a b c d -> (a, b, c, d))
      in
      let cap pcap labels interval =
        { pcap; labels = Array.init (String.length labels) (fun i -> label_of_char labels.[i]); interval }
      in
      let closed = cap (read_file (path ".closed.pcap")) closed_labels ci in
      let open_ =
        if Sys.file_exists (path ".open.pcap") then
          cap (read_file (path ".open.pcap")) open_labels oi
        else closed
      in
      { name; cfg = config_of name; closed; pass_packets; open_; expected_alerts = expected }
  | _ -> failwith ("malformed " ^ path ".labels")
