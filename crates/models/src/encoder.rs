//! The [`SeqEncoder`] abstraction: any sequential recommender that maps an
//! item-representation sequence `B×T×d` to a sequence representation `B×d`
//! (the paper's `f_seq`, Eq. 15).
//!
//! Because encoders consume *representations* rather than raw IDs, SSDRec
//! can hand them denoised embedding sequences — this is exactly the plug-in
//! point the paper describes.

use ssdrec_tensor::{Binding, Graph, Var};

/// A sequential encoder `f_seq : B×T×d → B×d`.
///
/// `Send + Sync` is required so frozen models can be shared across the
/// serving subsystem's worker threads; encoders hold only parameter
/// handles and static configuration, never mutable state.
pub trait SeqEncoder: Send + Sync {
    /// Encode a batch of item-representation sequences into one
    /// representation per sequence.
    fn encode(&self, g: &mut Graph, bind: &Binding, h_seq: Var) -> Var;

    /// The model's display name (as used in the paper's tables).
    fn name(&self) -> &'static str;
}

/// Which backbone to build (the six baselines of Table III).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BackboneKind {
    /// GRU4Rec [12]: GRU over the sequence, last hidden state.
    Gru4Rec,
    /// NARM [14]: GRU + attention hybrid encoder.
    Narm,
    /// STAMP [40]: short-term attention/memory priority.
    Stamp,
    /// Caser [15]: horizontal + vertical convolutions.
    Caser,
    /// SASRec [16]: causal multi-head self-attention.
    SasRec,
    /// BERT4Rec [17]: bidirectional transformer.
    Bert4Rec,
}

impl BackboneKind {
    /// All six backbones in the paper's column order.
    pub fn all() -> [BackboneKind; 6] {
        [
            BackboneKind::Gru4Rec,
            BackboneKind::Narm,
            BackboneKind::Stamp,
            BackboneKind::Caser,
            BackboneKind::SasRec,
            BackboneKind::Bert4Rec,
        ]
    }

    /// The backbone whose display name is `name`, ignoring ASCII case (how
    /// `--backbone` flags and version metadata spell it).
    pub fn by_name(name: &str) -> Option<BackboneKind> {
        Self::all()
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BackboneKind::Gru4Rec => "GRU4Rec",
            BackboneKind::Narm => "NARM",
            BackboneKind::Stamp => "STAMP",
            BackboneKind::Caser => "Caser",
            BackboneKind::SasRec => "SASRec",
            BackboneKind::Bert4Rec => "BERT4Rec",
        }
    }
}
